//! The interpreter's opcode semantics, split by operational category (the
//! raya-style layout).
//!
//! [`fused`] is the interpreter loop and the single decode point: it
//! matches each opcode once, runs the hot arithmetic/local/control
//! opcodes inline, and delegates the cold ones (heap, calls, natives,
//! division, returns, monitors) to a handler in [`arith`], [`control`],
//! [`heap`] or [`invoke`]. Those modules also hold the value helpers the
//! inline arms evaluate through.
//!
//! What each opcode charges the machine — cost class, memory references,
//! branch outcome — is pinned by `tests/determinism_goldens.rs`.

pub(crate) mod arith;
pub(crate) mod control;
pub(crate) mod fused;
pub(crate) mod heap;
pub(crate) mod invoke;

use jbc::OpClass;
use machine::Machine;
use sim_core::{CostModel, Cycles};

/// Base cycle cost of one instruction of `class` (dispatch + class cost).
#[inline]
pub(crate) fn op_cost(c: &CostModel, class: OpClass) -> Cycles {
    c.dispatch
        + match class {
            OpClass::Const => c.const_op,
            OpClass::Local => c.local,
            OpClass::Stack => c.stack,
            OpClass::AluInt => c.alu_int,
            OpClass::MulInt => c.mul_int,
            OpClass::DivInt => c.div_int,
            OpClass::AluFp => c.alu_fp,
            OpClass::MulFp => c.mul_fp,
            OpClass::DivFp => c.div_fp,
            OpClass::Conv => c.conv,
            OpClass::Branch => c.branch,
            OpClass::HeapLoad => c.heap_load,
            OpClass::HeapStore => c.heap_store,
            OpClass::Alloc => c.alloc,
            OpClass::Call => c.call,
            OpClass::Native => c.native,
            OpClass::Throw => c.throw,
            OpClass::Monitor => c.monitor,
        }
}

/// Charge one instruction to the machine; callable while the VM's fields
/// are disjointly borrowed (`Vm::charge` wraps it for the cold handlers).
#[inline]
pub(crate) fn charge(
    machine: &mut Machine,
    cost: &CostModel,
    class: OpClass,
    pc_vaddr: u64,
    refs: &[(u64, bool)],
    branch: Option<(bool, u64)>,
) {
    machine.step_instr(op_cost(cost, class), pc_vaddr, refs, branch);
}
