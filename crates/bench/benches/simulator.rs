//! Criterion microbenchmarks of the transmuter simulator itself:
//! event-loop throughput, the compiled-program interpreter that kernels
//! run on, memory-system resolution cost, and end-to-end small SpMV
//! invocations under both dataflows. Useful for tracking regressions in
//! the simulator's host performance (simulated cycles per host second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bench::run_spmv_fixed;
use cosparse::SwConfig;
use transmuter::{Geometry, HwConfig, Machine, MicroArch, Op, Program, StreamBuilder, StreamSet};

fn bench_event_loop(c: &mut Criterion) {
    let g = Geometry::new(4, 8);
    let mut group = c.benchmark_group("event-loop");
    group.sample_size(20);

    group.bench_function("compute_only_320k_ops", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    s.set_pe(t, pe, (0..10_000).map(|_| Op::Compute(1)));
                }
            }
            black_box(m.run(s).unwrap())
        })
    });

    group.bench_function("sequential_loads_160k", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    let base = (t * 8 + pe) as u64 * 0x10_0000;
                    s.set_pe(t, pe, (0..5_000u64).map(move |i| Op::Load(base + i * 4)));
                }
            }
            black_box(m.run(s).unwrap())
        })
    });

    group.bench_function("random_loads_160k", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            let mut s = StreamSet::new(g);
            for t in 0..4 {
                for pe in 0..8 {
                    let mut z = (t * 8 + pe) as u64 + 1;
                    s.set_pe(
                        t,
                        pe,
                        (0..5_000u64).map(move |_| {
                            z ^= z << 13;
                            z ^= z >> 7;
                            z ^= z << 17;
                            Op::Load((z % 0x100_0000) & !3)
                        }),
                    );
                }
            }
            black_box(m.run(s).unwrap())
        })
    });
    group.finish();
}

/// Inner-product-shaped streams: per row, a sequential matrix load,
/// `compute(1)`, an operand gather (a scratchpad load when `spm`, else a
/// scattered global load) and `compute(3)`.
fn ip_streams(g: Geometry, rows: u64, spm: bool) -> Vec<(usize, Vec<Op>)> {
    let mut streams = Vec::new();
    for t in 0..g.tiles() {
        for pe in 0..g.pes_per_tile() {
            let w = g.pe_id(t, pe);
            let mut z = w as u64 + 1;
            let mut b = StreamBuilder::new();
            for i in 0..rows {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                b.load(w as u64 * 0x10_0000 + i * 8).compute(1);
                if spm {
                    b.spm_load((z % 2048) as u32 * 4);
                } else {
                    b.load(0x800_0000 + (z % 0x4_0000) * 4);
                }
                b.compute(3);
            }
            streams.push((w, b.into_stream().collect()));
        }
    }
    streams
}

fn bench_program(c: &mut Criterion) {
    let g = Geometry::new(2, 8);
    let mut group = c.benchmark_group("program");
    group.sample_size(20);
    for (name, hw) in [
        ("ip_scs_256k_ops", HwConfig::Scs),
        ("ip_pc_256k_ops", HwConfig::Pc),
    ] {
        let streams = ip_streams(g, 4_000, hw == HwConfig::Scs);
        let prog = Program::compile(
            g,
            hw,
            &MicroArch::paper(),
            streams.iter().map(|(w, ops)| (*w, ops.as_slice())),
        );
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut m = Machine::new(g, MicroArch::paper());
                    m.reconfigure(hw);
                    m
                },
                |mut m| black_box(m.run_program(&prog).unwrap()),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_reconfiguration(c: &mut Criterion) {
    let g = Geometry::new(4, 8);
    let mut group = c.benchmark_group("reconfiguration");
    group.sample_size(30);
    group.bench_function("flush_and_switch", |b| {
        b.iter(|| {
            let mut m = Machine::new(g, MicroArch::paper());
            for hw in [HwConfig::Scs, HwConfig::Pc, HwConfig::Ps, HwConfig::Sc] {
                black_box(m.reconfigure(hw));
            }
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let n = 1 << 12;
    let m = sparse::generate::uniform(n, n, 40_000, 11).unwrap();
    let g = Geometry::new(2, 4);
    let mut group = c.benchmark_group("end-to-end-spmv");
    group.sample_size(10);
    group.bench_function("ip_sc_40k_nnz", |b| {
        b.iter(|| {
            black_box(run_spmv_fixed(
                &m,
                g,
                SwConfig::InnerProduct,
                HwConfig::Sc,
                1.0,
                3,
            ))
        })
    });
    group.bench_function("op_ps_1pct_40k_nnz", |b| {
        b.iter(|| {
            black_box(run_spmv_fixed(
                &m,
                g,
                SwConfig::OuterProduct,
                HwConfig::Ps,
                0.01,
                3,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_loop,
    bench_program,
    bench_reconfiguration,
    bench_end_to_end
);
criterion_main!(benches);
