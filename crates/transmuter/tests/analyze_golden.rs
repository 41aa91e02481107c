//! Golden fixtures for the analyzer-derived lints: hand-built op
//! streams on which the dead-op, cross-epoch-hazard and
//! redundant-barrier diagnostics must fire (and must *not* fire),
//! pinning the exact diagnostic text and provenance fields, plus the
//! behaviour of the opt-in [`ProgramBuilder::elide_proven_barriers`].

use transmuter::{Geometry, HwConfig, LintKind, Machine, MicroArch, ProgramBuilder, Severity};

fn builder(hw: HwConfig) -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    b.begin(Geometry::new(2, 4), hw, &MicroArch::paper());
    b
}

/// A store overwritten by the same worker with no intervening read is
/// dead; the diagnostic carries the first store's provenance.
#[test]
fn dead_store_fires_with_pinned_text() {
    let mut b = builder(HwConfig::Pc);
    b.begin_pe(0, 0);
    b.store(0x1000);
    b.store(0x1000);
    b.load(0x1000);
    b.compute(1);
    let prog = b.finish();

    let a = prog.analysis().expect("analysis attached");
    assert!(a.congruent());
    let diags = a.diagnostics();
    assert_eq!(diags.len(), 1, "exactly the dead store: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.worker, 0);
    assert_eq!(d.position, Some(0));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.kind, LintKind::DeadStore { addr: 0x1000 });
    assert_eq!(
        d.to_string(),
        "warning: worker 0, op 0: store to 0x1000 is dead: overwritten before any read"
    );
}

/// Store → load → store is not dead (the read consumes the first
/// value, and the trailing HBM store is a live program output).
#[test]
fn dead_store_silent_when_value_is_read() {
    let mut b = builder(HwConfig::Pc);
    b.begin_pe(0, 0);
    b.store(0x1000);
    b.load(0x1000);
    b.store(0x1000);
    let prog = b.finish();

    let a = prog.analysis().expect("analysis attached");
    assert!(a.diagnostics().is_empty(), "{:?}", a.diagnostics());
}

/// SPM slots are scratch: a trailing SPM store that is never read back
/// is dead even at end-of-program.
#[test]
fn dead_spm_write_fires_with_pinned_text() {
    let mut b = builder(HwConfig::Ps);
    b.begin_pe(0, 0);
    b.spm_store(8);
    b.compute(2);
    let prog = b.finish();

    let a = prog.analysis().expect("analysis attached");
    let diags = a.diagnostics();
    assert_eq!(diags.len(), 1, "exactly the dead spm write: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.worker, 0);
    assert_eq!(d.position, Some(0));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.kind, LintKind::DeadSpmWrite { offset: 8 });
    assert_eq!(
        d.to_string(),
        "warning: worker 0, op 0: spm store at offset 8 is dead: never read back"
    );
}

/// An SPM store that is read back before the end of the program is
/// live — no diagnostic.
#[test]
fn dead_spm_write_silent_when_read_back() {
    let mut b = builder(HwConfig::Ps);
    b.begin_pe(0, 0);
    b.spm_store(8);
    b.spm_load(8);
    let prog = b.finish();

    let a = prog.analysis().expect("analysis attached");
    assert!(a.diagnostics().is_empty(), "{:?}", a.diagnostics());
}

/// Two workers storing to one location in consecutive epochs with no
/// intervening read: the hazard is reported on the clobbered store
/// with full `(worker, epoch, pc)` provenance for both sides, and the
/// separating barrier is *not* an elision candidate.
#[test]
fn cross_epoch_write_hazard_fires_with_provenance() {
    let mut b = builder(HwConfig::Pc);
    b.begin_pe(0, 0);
    b.store(0x2000);
    b.global_barrier();
    b.compute(1);
    b.begin_pe(0, 1);
    b.compute(1);
    b.global_barrier();
    b.store(0x2000);
    let prog = b.finish();

    let a = prog.analysis().expect("analysis attached");
    let diags = a.diagnostics();
    assert_eq!(diags.len(), 1, "exactly the hazard: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.worker, 0, "reported on the overwritten store's worker");
    assert_eq!(d.position, Some(0));
    assert_eq!(
        d.kind,
        LintKind::CrossEpochWriteHazard {
            addr: 0x2000,
            first: (0, 0, 0),
            second: (1, 1, 2),
        }
    );
    assert_eq!(
        d.to_string(),
        "warning: worker 0, op 0: cross-epoch write-write hazard on 0x2000: \
         worker 0 (epoch 0, op 0) overwritten by worker 1 (epoch 1, op 2) \
         with no intervening read"
    );
    assert!(
        a.elision_candidates().is_empty(),
        "the barrier orders a real dependence and must stay"
    );
}

/// A global barrier between epochs with no cross-worker dependence is
/// flagged as an elision candidate (positionless, on the first
/// streamed worker), and `elide_proven_barriers` removes exactly it —
/// the rebuilt program has one epoch and still runs.
#[test]
fn redundant_barrier_flagged_and_elided() {
    let mut b = builder(HwConfig::Pc);
    b.begin_pe(0, 0);
    b.load(0x0);
    b.compute(1);
    b.global_barrier();
    b.load(0x1000);
    b.compute(1);
    b.begin_pe(1, 0);
    b.load(0x40);
    b.compute(1);
    b.global_barrier();
    b.load(0x1040);
    b.compute(1);
    b.finish();

    {
        let a = b.program().analysis().expect("analysis attached");
        assert_eq!(a.elision_candidates(), &[0]);
        let barrier_diags: Vec<_> = a
            .diagnostics()
            .iter()
            .filter(|d| matches!(d.kind, LintKind::RedundantBarrier { .. }))
            .collect();
        assert_eq!(barrier_diags.len(), 1, "{barrier_diags:?}");
        let d = barrier_diags[0];
        assert_eq!(d.worker, 0, "attributed to the first streamed worker");
        assert_eq!(d.position, None, "a barrier has no single op position");
        assert_eq!(d.kind, LintKind::RedundantBarrier { barrier_index: 0 });
        assert_eq!(
            d.to_string(),
            "warning: worker 0: global barrier 0 separates provably independent \
             epochs; elision candidate"
        );
    }

    assert_eq!(b.elide_proven_barriers(), 1);
    let prog = b.program();
    let a = prog.analysis().expect("analysis re-derived after elision");
    assert!(a.congruent());
    assert_eq!(a.epochs().len(), 1, "the two epochs merged into one");
    assert!(a.elision_candidates().is_empty());

    let mut m = Machine::new(Geometry::new(2, 4), MicroArch::paper());
    m.reconfigure(HwConfig::Pc);
    m.run_program(prog).expect("elided program still runs");
}

/// `elide_proven_barriers` is a no-op when every barrier orders a real
/// cross-epoch dependence.
#[test]
fn elision_refused_on_dependent_epochs() {
    let mut b = builder(HwConfig::Pc);
    b.begin_pe(0, 0);
    b.store(0x2000);
    b.global_barrier();
    b.compute(1);
    b.begin_pe(0, 1);
    b.compute(1);
    b.global_barrier();
    b.store(0x2000);
    b.finish();

    assert_eq!(b.elide_proven_barriers(), 0);
    let a = b.program().analysis().expect("analysis attached");
    assert_eq!(a.epochs().len(), 2, "both epochs survive");
}
