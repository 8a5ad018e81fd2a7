//! Differential determinism suite: the seeded corpus replayed through the
//! current interpreter/scheduler must match goldens recorded from the
//! implementation that existed before the dispatch/tick-scheduler rework.
//! A hand-assembled opcode sweep follows the corpus: the generated
//! programs never emit switches, reference compares, `DupX1`/`Swap` or most
//! conversions, so the sweep pins those opcodes' results and timing too.
//!
//! Every fingerprint is exact — cycle counts, instruction counts, wall-ps,
//! console output, per-packet IPDs, the core model's cache/TLB/branch/bus
//! counters, and the full verdict/summary structures
//! (floats compared via their shortest-roundtrip `Debug` rendering, which
//! is bit-faithful). Any change to opcode semantics, cost accounting, event
//! ordering, RNG draw order, or detector arithmetic fails here first.
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test --test determinism_goldens`
//! — but only when a change is *supposed* to alter timing, and say so in
//! the commit.

use jbc::{ElemTy, Label, MethodAsm, Op, Program, ProgramBuilder, Ty};
use sanity_tdr::{AuditConfig, AuditJob, BatteryMode, DetectorBattery, Sanity};
use sim_core::CoreStats;
use workloads::corpus;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/determinism.txt"
);
const SEPARATOR: &str = "\n=== program ";

/// The timing model's microarchitectural counters: a host-side fast path
/// in the caches, TLB or predictor that changed any hit, miss or
/// mispredict would show here even if the cycle totals happened to agree.
fn core_counters(c: &CoreStats) -> String {
    format!(
        "retired={} l1i={:?} l1d={:?} l2={:?} tlb={:?} branch={:?} bus={:?}",
        c.retired, c.l1i, c.l1d, c.l2, c.tlb, c.branch, c.bus
    )
}

/// The pinned programs: `(k, label, program)`, where `k` seeds every run
/// of the program. The seeded corpus first, then the opcode sweep.
fn golden_programs() -> Vec<(u64, String, Program)> {
    let mut out: Vec<(u64, String, Program)> = (0..corpus::GOLDEN_CORPUS_SIZE as u64)
        .map(|k| {
            let prog = corpus::corpus_program(corpus::GOLDEN_CORPUS_SEED + k);
            (k, k.to_string(), prog)
        })
        .collect();
    let k = corpus::GOLDEN_CORPUS_SIZE as u64;
    out.push((k, format!("{k} (opcode sweep)"), opcode_sweep()));
    out
}

/// One program's exact behavioural fingerprint.
fn fingerprint(k: u64, prog: Program) -> String {
    let s = Sanity::new(prog);

    // Three training runs under distinct noise seeds give the battery a
    // non-degenerate clean distribution for this program.
    let training: Vec<Vec<u64>> = (0..3)
        .map(|t| {
            s.record(9_000 + k * 10 + t, |_| {})
                .expect("training record")
                .tx_ipds_cycles()
        })
        .collect();

    let rec = s.record(1_000 + k, |_| {}).expect("record");
    let rep = s.replay(&rec.log, 2_000 + k, |_| {}).expect("replay");

    let audited = s.with_battery(DetectorBattery::trained(&training));
    let job = AuditJob {
        session_id: k,
        log: rec.log.clone(),
        observed_ipds: rec.tx_ipds_cycles(),
    };
    let cfg = AuditConfig {
        workers: 2,
        battery: BatteryMode::Full,
        ..AuditConfig::default()
    };
    let report = audited.audit_batch(std::slice::from_ref(&job), &cfg);

    format!(
        "record: exit={:?} icount={} cycles={} wall_ps={} gc={}\n\
         record console={:?}\n\
         record ipds={:?}\n\
         record core: {}\n\
         replay: exit={:?} icount={} cycles={} wall_ps={}\n\
         replay console={:?}\n\
         replay ipds={:?}\n\
         replay core: {}\n\
         verdicts={:?}\n\
         summary={:?}\n",
        rec.outcome.exit,
        rec.outcome.icount,
        rec.outcome.cycles,
        rec.outcome.wall_ps,
        rec.gc_runs,
        rec.outcome.console,
        rec.tx_ipds_cycles(),
        core_counters(&rec.core),
        rep.outcome.exit,
        rep.outcome.icount,
        rep.outcome.cycles,
        rep.outcome.wall_ps,
        rep.outcome.console,
        rep.tx_ipds_cycles(),
        core_counters(&rep.core),
        report.verdicts,
        report.summary,
    )
}

fn render_all() -> String {
    let mut out = String::from("determinism goldens v1\n");
    for (k, label, prog) in golden_programs() {
        out.push_str(SEPARATOR);
        out.push_str(&format!("{label} ===\n"));
        out.push_str(&fingerprint(k, prog));
    }
    out
}

// ---- opcode sweep -----------------------------------------------------------

// Local slots of the sweep's `main`.
const K: u16 = 0;
const ACC: u16 = 1;
const LACC: u16 = 2;
const DACC: u16 = 3;
const R: u16 = 4;
const KD: u16 = 5;
const OUT: u16 = 6;
const X: u16 = 7;
const Y: u16 = 8;
const Z: u16 = 9;
const NAN: u16 = 10;

/// Iterations of the sweep loop; each sends one packet.
const SWEEP_ITERS: i32 = 10;

/// `acc = acc * 31 + pop()`.
fn fold_i(m: &mut MethodAsm<'_>) {
    m.op(Op::ILoad(ACC))
        .op(Op::IConst(31))
        .op(Op::IMul)
        .op(Op::IAdd)
        .op(Op::IStore(ACC));
}

/// `lacc = lacc * 1_000_003 + pop()`.
fn fold_l(m: &mut MethodAsm<'_>) {
    m.op(Op::LLoad(LACC))
        .op(Op::LConst(1_000_003))
        .op(Op::LMul)
        .op(Op::LAdd)
        .op(Op::LStore(LACC));
}

/// Fold a double bit-faithfully enough to see NaN, ±inf and rounding:
/// its `DCmpG` against 0.5 into `acc`, and `D2L(x * 1e3)` into `lacc`.
fn fold_d(m: &mut MethodAsm<'_>) {
    m.op(Op::Dup).op(Op::DConst(0.5)).op(Op::DCmpG);
    fold_i(m);
    m.op(Op::DConst(1e3)).op(Op::DMul).op(Op::D2L);
    fold_l(m);
}

/// Pop the branch's operands; fold 2 into `acc` if it is taken, 1 if not.
fn branch(m: &mut MethodAsm<'_>, br: fn(u32) -> Op) {
    let taken = m.label();
    let join = m.label();
    m.br(br, taken).op(Op::IConst(1));
    fold_i(m);
    m.br(Op::Goto, join).bind(taken).op(Op::IConst(2));
    fold_i(m);
    m.bind(join);
}

/// Fold a distinct constant per switch arm; the last label is the default.
fn switch_arms(m: &mut MethodAsm<'_>, arms: &[Label]) {
    let join = m.label();
    for (n, &arm) in arms.iter().enumerate() {
        m.bind(arm).op(Op::IConst(10 + n as i32));
        fold_i(m);
        m.br(Op::Goto, join);
    }
    m.bind(join);
}

/// A hand-assembled program that executes every opcode the interpreter
/// runs inline at least once, on operands that vary per loop iteration:
/// every branch both taken and not taken, in-range and default switch
/// arms, shift counts past the operand width, `D2I`/`D2L` of NaN and of
/// out-of-range values, and `DCmpL`/`DCmpG` on NaN. Every result is folded
/// into accumulators that set each packet's delay and the console output,
/// so a wrong value shows in the IPDs and the console, not just in cycles.
fn opcode_sweep() -> Program {
    use Op::*;
    let mut b = ProgramBuilder::new();
    let class = b.class("Sweep", None);
    let s_int = b.static_field(class, "s_int", Ty::I32);
    let s_long = b.static_field(class, "s_long", Ty::I64);
    let mut m = b.static_method("Sweep", "main", &[], None);

    m.op(IConst(17)).op(IStore(ACC));
    m.op(LConst(0)).op(LStore(LACC));
    m.op(DConst(0.0)).op(DStore(DACC));
    m.op(IConst(8)).op(NewArray(ElemTy::I8)).op(AStore(OUT));
    m.op(IConst(0)).op(IStore(K));
    let top = m.label();
    let exit = m.label();
    m.bind(top).op(ILoad(K)).op(IConst(SWEEP_ITERS));
    m.br(IfICmpGe, exit);

    // Per-iteration operands: x < 0 for k < 4, z = 0.75k - 2, NaN.
    m.op(ILoad(K))
        .op(IConst(4))
        .op(ISub)
        .op(IConst(0x0123_4567));
    m.op(IMul).op(IStore(X));
    m.op(ILoad(X))
        .op(I2L)
        .op(LConst(0x1_0000_0001))
        .op(LMul)
        .op(LStore(Y));
    m.op(ILoad(K)).op(I2D).op(DStore(KD));
    m.op(DLoad(KD))
        .op(DConst(0.75))
        .op(DMul)
        .op(DConst(2.0))
        .op(DSub);
    m.op(DStore(Z));
    m.op(DConst(0.0)).op(DConst(0.0)).op(DDiv).op(DStore(NAN));
    // r = the interned "sweep" for odd k, null for even k.
    let null = m.label();
    let ref_done = m.label();
    m.op(ILoad(K)).op(IConst(1)).op(IAnd);
    m.br(IfEq, null).ldc_str("sweep").op(AStore(R));
    m.br(Goto, ref_done).bind(null).op(AConstNull).op(AStore(R));
    m.bind(ref_done).op(Nop);

    // Integer arithmetic; shift counts run 29..38, past 31.
    for op in [IAdd, ISub, IMul, IAnd, IOr, IXor] {
        m.op(ILoad(X)).op(IConst(-0x0f0f_0f0f)).op(op);
        fold_i(&mut m);
    }
    for op in [IShl, IShr, IUShr] {
        m.op(ILoad(X)).op(ILoad(K)).op(IConst(29)).op(IAdd).op(op);
        fold_i(&mut m);
    }
    m.op(ILoad(X)).op(INeg);
    fold_i(&mut m);
    m.op(IConst(i32::MIN)).op(INeg);
    fold_i(&mut m);

    // Long arithmetic; shift counts run 61..70, past 63.
    for op in [LAdd, LSub, LMul, LAnd, LOr, LXor] {
        m.op(LLoad(Y)).op(LConst(-0x0123_4567_89ab_cdef)).op(op);
        fold_l(&mut m);
    }
    for op in [LShl, LShr, LUShr] {
        m.op(LLoad(Y)).op(ILoad(K)).op(IConst(61)).op(IAdd).op(op);
        fold_l(&mut m);
    }
    m.op(LLoad(Y)).op(LNeg);
    fold_l(&mut m);

    // Double arithmetic; the divisor k - 3 is zero once.
    for op in [DAdd, DSub, DMul, DDiv, DRem] {
        m.op(DLoad(Z)).op(DLoad(KD)).op(DConst(3.0)).op(DSub).op(op);
        fold_d(&mut m);
    }
    m.op(DLoad(Z)).op(DNeg);
    fold_d(&mut m);

    // Conversions, including saturating and NaN double-to-integer.
    m.op(ILoad(X)).op(I2L);
    fold_l(&mut m);
    m.op(ILoad(X)).op(I2D);
    fold_d(&mut m);
    m.op(LLoad(Y)).op(L2I);
    fold_i(&mut m);
    m.op(LLoad(Y)).op(L2D);
    fold_d(&mut m);
    for op in [I2B, I2C, I2S] {
        m.op(ILoad(X)).op(op);
        fold_i(&mut m);
    }
    m.op(DLoad(Z)).op(DConst(1e9)).op(DMul).op(D2I);
    fold_i(&mut m);
    m.op(DLoad(NAN)).op(D2I);
    fold_i(&mut m);
    m.op(DLoad(Z)).op(DConst(1e18)).op(DMul).op(D2L);
    fold_l(&mut m);
    m.op(DLoad(Z)).op(DConst(1e300)).op(DMul).op(D2L);
    fold_l(&mut m);
    m.op(DLoad(NAN)).op(D2L);
    fold_l(&mut m);

    // Comparisons, including both NaN polarities.
    m.op(LLoad(Y)).op(LConst(0)).op(LCmp);
    fold_i(&mut m);
    m.op(LLoad(Y)).op(LLoad(Y)).op(LCmp);
    fold_i(&mut m);
    for op in [DCmpL, DCmpG] {
        m.op(DLoad(Z)).op(DConst(0.0)).op(op.clone());
        fold_i(&mut m);
        m.op(DLoad(NAN)).op(DLoad(Z)).op(op.clone());
        fold_i(&mut m);
        m.op(DLoad(Z)).op(DLoad(NAN)).op(op);
        fold_i(&mut m);
    }

    // Stack shuffles, each order-sensitive.
    m.op(IConst(9)).op(Pop);
    m.op(ILoad(X)).op(Dup).op(IAdd);
    fold_i(&mut m);
    m.op(ILoad(X)).op(ILoad(K)).op(DupX1).op(ISub).op(ISub);
    fold_i(&mut m);
    m.op(ILoad(X)).op(ILoad(K)).op(Swap).op(ISub);
    fold_i(&mut m);

    // Branches on k - 3 and (k, 3): each is taken on some iterations.
    let if_zero: [fn(u32) -> Op; 6] = [IfEq, IfNe, IfLt, IfGe, IfGt, IfLe];
    for br in if_zero {
        m.op(ILoad(K)).op(IConst(3)).op(ISub);
        branch(&mut m, br);
    }
    let if_icmp: [fn(u32) -> Op; 6] = [IfICmpEq, IfICmpNe, IfICmpLt, IfICmpGe, IfICmpGt, IfICmpLe];
    for br in if_icmp {
        m.op(ILoad(K)).op(IConst(3));
        branch(&mut m, br);
    }
    m.op(ALoad(R));
    branch(&mut m, IfNull);
    m.op(ALoad(R));
    branch(&mut m, IfNonNull);
    m.op(ALoad(R)).ldc_str("sweep");
    branch(&mut m, IfACmpEq);
    m.op(ALoad(R)).op(AConstNull);
    branch(&mut m, IfACmpNe);

    // Switches on k - 2: keys 0..=2 hit the table, -2, 1 and 4 the
    // lookup; every other key takes the default.
    let arms: Vec<Label> = (0..4).map(|_| m.label()).collect();
    m.op(ILoad(K)).op(IConst(2)).op(ISub);
    m.table_switch(0, &arms[..3], arms[3]);
    switch_arms(&mut m, &arms);
    let arms: Vec<Label> = (0..5).map(|_| m.label()).collect();
    m.op(ILoad(K)).op(IConst(2)).op(ISub);
    m.lookup_switch(
        &[(-2, arms[0]), (1, arms[1]), (4, arms[2]), (100, arms[3])],
        arms[4],
    );
    switch_arms(&mut m, &arms);

    // Statics.
    m.op(GetStatic(s_int))
        .op(ILoad(K))
        .op(IAdd)
        .op(PutStatic(s_int));
    m.op(GetStatic(s_int));
    fold_i(&mut m);
    m.op(GetStatic(s_long))
        .op(LLoad(Y))
        .op(LXor)
        .op(PutStatic(s_long));
    m.op(GetStatic(s_long));
    fold_l(&mut m);
    m.op(DLoad(DACC)).op(DLoad(Z)).op(DAdd).op(DStore(DACC));

    // Transmit: the delay before each packet depends on `acc`.
    m.op(ALoad(OUT)).op(IConst(0)).op(ILoad(ACC)).op(BAStore);
    m.op(ALoad(OUT)).op(IConst(1)).op(ILoad(K)).op(BAStore);
    m.op(ILoad(ACC)).op(IConst(1023)).op(IAnd).op(I2L);
    m.op(LConst(2_000)).op(LAdd);
    m.invoke_native("delay_cycles", 1, false);
    m.op(ALoad(OUT)).op(IConst(8));
    m.invoke_native("net_send", 2, false);
    m.op(IInc(K, 1));
    m.br(Goto, top);

    m.bind(exit).op(ILoad(ACC));
    m.invoke_native("println_i", 1, false);
    m.op(LLoad(LACC));
    m.invoke_native("println_l", 1, false);
    m.op(DLoad(DACC));
    m.invoke_native("println_d", 1, false);
    m.op(GetStatic(s_int));
    m.invoke_native("println_i", 1, false);
    m.ldc_str("sweep");
    m.invoke_native("println_s", 1, false);
    m.op(Return);
    let main = m.finish();
    b.set_entry(main);
    b.link().expect("opcode sweep links")
}

#[test]
fn opcode_sweep_covers_every_inline_opcode() {
    let prog = opcode_sweep();
    let code: std::collections::BTreeSet<&str> = prog
        .methods
        .iter()
        .flat_map(|m| m.code.iter().map(Op::mnemonic))
        .collect();
    let inline = "nop iconst lconst dconst aconst_null ldc_str iload lload dload aload istore \
        lstore dstore astore iinc pop dup dup_x1 swap iadd isub imul iand ior ixor ishl \
        ishr iushr ineg ladd lsub lmul land lor lxor lshl lshr lushr lneg dadd dsub dmul \
        ddiv drem dneg i2l i2d l2i l2d d2i d2l i2b i2c i2s lcmp dcmpl dcmpg goto ifeq \
        ifne iflt ifge ifgt ifle if_icmpeq if_icmpne if_icmplt if_icmpge if_icmpgt \
        if_icmple if_acmpeq if_acmpne ifnull ifnonnull tableswitch lookupswitch \
        getstatic putstatic";
    for op in inline.split_whitespace() {
        assert!(code.contains(op), "opcode sweep never executes {op}");
    }
}

#[test]
fn corpus_matches_pinned_goldens() {
    let actual = render_all();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("mkdir goldens");
        std::fs::write(GOLDEN_PATH, &actual).expect("write goldens");
        eprintln!("goldens updated at {GOLDEN_PATH}");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("goldens missing — run once with UPDATE_GOLDENS=1");
    if expected != actual {
        // Diff per program so the failure names the culprit.
        let exp: Vec<&str> = expected.split(SEPARATOR).collect();
        let act: Vec<&str> = actual.split(SEPARATOR).collect();
        assert_eq!(
            exp.len(),
            act.len(),
            "golden program count changed (regenerate deliberately)"
        );
        for (e, a) in exp.iter().zip(act.iter()) {
            if e != a {
                for (le, la) in e.lines().zip(a.lines()) {
                    assert_eq!(le, la, "determinism fingerprint diverged");
                }
                assert_eq!(e, a, "determinism fingerprint diverged (line count)");
            }
        }
        panic!("goldens diverged"); // unreachable fallback
    }
}
