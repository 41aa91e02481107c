//! `cosparse-verify`: static-analysis sweep of the shipped SpMV kernels.
//!
//! For every software x hardware pairing (IP/OP x SC/SCS/PC/PS) the tool
//! generates kernel streams on a synthetic matrix, lints them against
//! the machine configuration and the layout's address map, runs them
//! under tracing, and feeds the trace through the race detector.
//!
//! Each combination is additionally cross-checked against the
//! single-pass `ProgramBuilder` pipeline (verification off): both
//! paths must report identical simulated cycles.
//!
//! Exit status is nonzero if any combination is rejected by the linter,
//! produces a race, truncates its trace, or diverges from the builder
//! pipeline.
//!
//! With `--explain`, each combination additionally prints the static
//! epoch-dependence analyzer's verdict (epochs proven free of
//! cross-tile interference versus needing a dynamic check) and, when
//! some epoch is not proven, the first blocking interference witness —
//! which epoch's tiles interfere, and on what address. The verdicts are
//! reported only; the machine executes every program sequentially.
//!
//! ```text
//! cosparse-verify [--tiles A] [--pes B] [--n N] [--nnz M]
//!                 [--density D] [--seed S] [--explain]
//! ```

use cosparse::{CoSparse, Frontier, HwConfig, Policy, SwConfig};
use sparse::CooMatrix;
use transmuter::{Geometry, Machine, MicroArch, ParCommit};

struct Opts {
    tiles: usize,
    pes: usize,
    n: usize,
    nnz: usize,
    density: f64,
    seed: u64,
    explain: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            tiles: 2,
            pes: 4,
            n: 512,
            nnz: 4096,
            density: 0.05,
            seed: 17,
            explain: false,
        }
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            println!(
                "usage: cosparse-verify [--tiles A] [--pes B] [--n N] \
                 [--nnz M] [--density D] [--seed S] [--explain]"
            );
            std::process::exit(0);
        }
        if flag == "--explain" {
            opts.explain = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        fn set<T: std::str::FromStr>(slot: &mut T, flag: &str, value: &str) -> Result<(), String> {
            *slot = value
                .parse()
                .map_err(|_| format!("bad value for {flag}: {value}"))?;
            Ok(())
        }
        match flag.as_str() {
            "--tiles" => set(&mut opts.tiles, &flag, &value)?,
            "--pes" => set(&mut opts.pes, &flag, &value)?,
            "--n" => set(&mut opts.n, &flag, &value)?,
            "--nnz" => set(&mut opts.nnz, &flag, &value)?,
            "--density" => set(&mut opts.density, &flag, &value)?,
            "--seed" => set(&mut opts.seed, &flag, &value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.tiles == 0 || opts.pes == 0 {
        return Err("--tiles and --pes must be positive".into());
    }
    Ok(opts)
}

fn frontier_for(sw: SwConfig, opts: &Opts) -> Frontier {
    match sw {
        SwConfig::InnerProduct => {
            Frontier::Dense(sparse::generate::random_dense_vector(opts.n, opts.seed))
        }
        SwConfig::OuterProduct => Frontier::Sparse(
            sparse::generate::random_sparse_vector(opts.n, opts.density, opts.seed)
                .expect("sparse frontier"),
        ),
    }
}

fn check_combo(matrix: &CooMatrix, sw: SwConfig, hw: HwConfig, opts: &Opts) -> bool {
    let geom = Geometry::new(opts.tiles, opts.pes);
    if hw == HwConfig::Scs && geom.pes_per_tile() < 2 {
        println!("{sw:?} x {hw:24} SKIPPED: SCS needs >= 2 PEs per tile");
        return true;
    }
    let machine = Machine::new(geom, MicroArch::paper());
    let mut rt = CoSparse::new(matrix, machine);
    rt.set_verify(true);
    rt.set_policy(Policy::Fixed(sw, hw));
    let label = format!("{sw:?} x {hw}");
    match rt.spmv(&frontier_for(sw, opts)) {
        Ok(out) => {
            let report = rt.verification();
            let clean = report.is_clean();
            // The header names all four chosen axes: dataflow, hardware,
            // storage format, and locality reordering.
            let label = format!("{label} [{}/{}]", out.format, out.reorder);
            println!(
                "{:36} {:>12} cycles  {} warning(s)  {} race(s){}",
                label,
                out.report.cycles,
                report.warnings.len(),
                report.races.len(),
                if report.truncated {
                    "  [trace truncated]"
                } else {
                    ""
                }
            );
            for w in &report.warnings {
                println!("    warning: {w}");
            }
            for race in &report.races {
                println!("    RACE: {race}");
            }
            // Cross-check: the single-pass builder pipeline (verify
            // off) must time identically to the checked op-stream path.
            let mut rt2 = CoSparse::new(matrix, Machine::new(geom, MicroArch::paper()));
            rt2.set_policy(Policy::Fixed(sw, hw));
            if opts.explain {
                // Analyze one-shot scratch/conversion builds too, so
                // every combo has a verdict to explain.
                rt2.set_deep_analysis(true);
            }
            let agree = match rt2.spmv(&frontier_for(sw, opts)) {
                Ok(o2) if o2.report.cycles == out.report.cycles => true,
                Ok(o2) => {
                    println!(
                        "    PIPELINE DIVERGENCE: builder path {} cycles vs checked {}",
                        o2.report.cycles, out.report.cycles
                    );
                    false
                }
                Err(e) => {
                    println!("    builder path error: {e}");
                    false
                }
            };
            if opts.explain {
                explain_analysis(&rt2);
            }
            clean && agree
        }
        Err(e) => {
            println!("{label:24} REJECTED: {e}");
            false
        }
    }
}

/// Prints the analyzer verdict of the combo's last executed program:
/// the per-epoch commit tally and, when some epoch is not proven, the
/// first blocking interference witness.
fn explain_analysis(rt: &CoSparse) {
    let Some(a) = rt.last_analysis() else {
        println!("    analyzer: no compiled program executed");
        return;
    };
    if !a.congruent() {
        println!("    analyzer: inapplicable (incongruent, poisoned or unsupported program)");
        return;
    }
    let total = a.epochs().len();
    let proven = a
        .epochs()
        .iter()
        .filter(|e| matches!(e, ParCommit::Proven(_)))
        .count();
    println!(
        "    analyzer: {total} epoch(s): {proven} proven replay-free, {} dynamically checked",
        total - proven
    );
    if proven < total {
        match a.conflict() {
            Some(c) => println!("    analyzer: parallel commit denied: {c}"),
            None => println!("    analyzer: parallel commit denied (no single witness)"),
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cosparse-verify: {e}");
            std::process::exit(2);
        }
    };
    let matrix =
        sparse::generate::uniform(opts.n, opts.n, opts.nnz, opts.seed).expect("synthetic matrix");
    println!(
        "cosparse-verify: {} tiles x {} PEs, n={}, nnz={}",
        opts.tiles, opts.pes, opts.n, opts.nnz
    );

    let mut failures = 0usize;
    for sw in [SwConfig::InnerProduct, SwConfig::OuterProduct] {
        for hw in [HwConfig::Sc, HwConfig::Scs, HwConfig::Pc, HwConfig::Ps] {
            if !check_combo(&matrix, sw, hw, &opts) {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("FAIL: {failures} combination(s) with findings");
        std::process::exit(1);
    }
    println!("OK: all 8 combinations lint clean and race-free");
}
