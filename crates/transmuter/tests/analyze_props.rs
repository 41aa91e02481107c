//! Properties of the static epoch-dependence analyzer: the post-hoc
//! [`analyze`] oracle and the [`ProgramBuilder`]'s incremental path
//! derive the *same* verdict (differential, same shape as
//! `builder_props`).
//!
//! Deterministic companions pin the two non-trivial proven kinds:
//! disjoint HBM channel closures on a private-L2 config and disjoint HBM
//! lines on a shared-L2 config.

use proptest::prelude::*;
use transmuter::{
    analyze, Geometry, HwConfig, MicroArch, Op, ParCommit, ProgramBuilder, ProvenKind,
};

/// Decodes one generated op (same domain as `builder_props`).
fn decode_op(kind: usize, addr: u64, off: u32, n: u32) -> Op {
    match kind {
        0 => Op::Compute(n),
        1 => Op::Load(addr * 4),
        2 => Op::Store(addr * 4),
        3 => Op::SpmLoad(off * 4),
        4 => Op::SpmStore(off * 4),
        5 => Op::TileBarrier,
        _ => Op::GlobalBarrier,
    }
}

/// LCP SPM accesses are statically rejected by both pipelines; keep
/// them out of the domain so execution comparisons run.
fn lcp_safe(op: Op) -> Op {
    match op {
        Op::SpmLoad(off) | Op::SpmStore(off) => Op::Load(off as u64),
        other => other,
    }
}

/// One encoded worker stream: a presence selector (0 = no stream) plus
/// raw `(kind, addr, spm_offset, cycles)` op tuples for `decode_op`.
type RawStream = (usize, Vec<(usize, u64, u32, u32)>);

fn arb_case() -> impl Strategy<Value = (usize, usize, usize, Vec<RawStream>)> {
    (1usize..3, 2usize..4, 0usize..4).prop_flat_map(|(tiles, pes, hw)| {
        let workers = tiles * pes + tiles;
        (
            Just(tiles),
            Just(pes),
            Just(hw),
            proptest::collection::vec(
                (
                    0usize..4, // 0 = no stream
                    proptest::collection::vec(
                        (0usize..7, 0u64..0x4000, 0u32..1023, 0u32..4),
                        0..10,
                    ),
                ),
                workers,
            ),
        )
    })
}

/// Builds the case's program through the single-pass builder.
fn build_case(
    geom: Geometry,
    hw: HwConfig,
    ua: &MicroArch,
    raw: &[RawStream],
    b: &mut ProgramBuilder,
) {
    b.begin(geom, hw, ua);
    for (w, (selector, ops)) in raw.iter().enumerate() {
        if *selector == 0 {
            continue;
        }
        let (tile, pe) = geom.locate(w);
        match pe {
            Some(pe) => b.begin_pe(tile, pe),
            None => b.begin_lcp(tile),
        }
        for &(k, a, o, n) in ops {
            let op = decode_op(k, a, o, n);
            let op = if pe.is_none() { lcp_safe(op) } else { op };
            match op {
                Op::Compute(n) => b.compute(n),
                Op::Load(a) => b.load(a),
                Op::Store(a) => b.store(a),
                Op::SpmLoad(o) => b.spm_load(o),
                Op::SpmStore(o) => b.spm_store(o),
                Op::TileBarrier => b.tile_barrier(),
                Op::GlobalBarrier => b.global_barrier(),
            }
        }
    }
    b.finish();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The post-hoc oracle reproduces the builder's incremental verdict
    /// exactly: epochs, conflict witness, diagnostics, elision set,
    /// dependence edges — the whole [`transmuter::Analysis`].
    #[test]
    fn post_hoc_analysis_matches_incremental(case in arb_case()) {
        let (tiles, pes, hw_idx, raw) = case;
        let geom = Geometry::new(tiles, pes);
        let hw = HwConfig::ALL[hw_idx];
        let ua = MicroArch::paper();
        let mut b = ProgramBuilder::new();
        build_case(geom, hw, &ua, &raw, &mut b);
        let built = b.program();

        let incremental = built.analysis().expect("builder attaches an analysis");
        let post_hoc = analyze(built);
        prop_assert_eq!(incremental, &post_hoc);
    }
}

/// Strict disjoint-channel case: on `Ps` (private L2, direct PE route)
/// each tile's loads hit lines `16k + 8t`, so tile 0's channel closure
/// is `{0, 1}` and tile 1's is `{8, 9}` — disjoint. Both tiles are
/// HBM-active in both epochs, forcing the `DisjointChannels` proof (not
/// `SingleTile`).
#[test]
fn disjoint_channels_commit_replay_free() {
    let geom = Geometry::new(2, 4);
    let ua = MicroArch::paper();
    let mut b = ProgramBuilder::new();
    b.begin(geom, HwConfig::Ps, &ua);
    for tile in 0..2u64 {
        for pe in 0..4 {
            b.begin_pe(tile as usize, pe);
            for epoch in 0..2u64 {
                for k in 0..3u64 {
                    let line = 16 * (3 * epoch + k) + 8 * tile;
                    b.load(line * 64 + pe as u64 * 8);
                    b.compute(2);
                }
                if epoch == 0 {
                    b.global_barrier();
                }
            }
        }
        b.begin_lcp(tile as usize);
        b.compute(5);
        b.global_barrier();
        b.compute(5);
    }
    let prog = b.finish();

    let analysis = prog.analysis().expect("analysis attached");
    assert!(analysis.congruent());
    assert_eq!(
        analysis.epochs(),
        &[
            ParCommit::Proven(ProvenKind::DisjointChannels),
            ParCommit::Proven(ProvenKind::DisjointChannels),
        ],
        "both epochs must need (and get) the channel-closure proof"
    );
}

/// Shared-L2 case: on `Sc`, tile `t` touches only lines `2k + t`, so
/// every epoch's line sets are tile-disjoint and both epochs get the
/// `DisjointLines` proof.
#[test]
fn shared_l2_disjoint_lines_commit_replay_free() {
    let geom = Geometry::new(2, 4);
    let ua = MicroArch::paper();
    let mut b = ProgramBuilder::new();
    b.begin(geom, HwConfig::Sc, &ua);
    for tile in 0..2u64 {
        for pe in 0..4u64 {
            b.begin_pe(tile as usize, pe as usize);
            for epoch in 0..2u64 {
                for k in 0..3u64 {
                    let line = 2 * (12 * epoch + 3 * pe + k) + tile;
                    b.load(line * 64);
                    b.compute(1);
                }
                if epoch == 0 {
                    b.global_barrier();
                }
            }
        }
        b.begin_lcp(tile as usize);
        b.compute(3);
        b.global_barrier();
        b.compute(3);
    }
    let prog = b.finish();

    let analysis = prog.analysis().expect("analysis attached");
    assert_eq!(
        analysis.epochs(),
        &[
            ParCommit::Proven(ProvenKind::DisjointLines),
            ParCommit::Proven(ProvenKind::DisjointLines),
        ],
        "both epochs must need (and get) the line-disjointness proof"
    );
    assert!(analysis.all_proven());
}
