//! Control flow: branch conditions, switch targets, and returns.

use jbc::{Op, OpClass, Program};
use machine::machine::map;

use crate::error::VmError;
use crate::vmcore::{ThreadState, Vm};

/// `IfEq`..`IfLe` condition on one operand.
#[inline]
pub(crate) fn if_zero_taken(op: &Op, a: i32) -> bool {
    use Op::*;
    match op {
        IfEq(_) => a == 0,
        IfNe(_) => a != 0,
        IfLt(_) => a < 0,
        IfGe(_) => a >= 0,
        IfGt(_) => a > 0,
        _ => a <= 0,
    }
}

/// `IfICmpEq`..`IfICmpLe` condition on two operands.
#[inline]
pub(crate) fn if_icmp_taken(op: &Op, a: i32, b: i32) -> bool {
    use Op::*;
    match op {
        IfICmpEq(_) => a == b,
        IfICmpNe(_) => a != b,
        IfICmpLt(_) => a < b,
        IfICmpGe(_) => a >= b,
        IfICmpGt(_) => a > b,
        _ => a <= b,
    }
}

/// `TableSwitch` target selection.
#[inline]
pub(crate) fn table_switch_target(low: i32, targets: &[u32], default: u32, k: i32) -> u32 {
    let idx = k.wrapping_sub(low);
    if idx >= 0 && (idx as usize) < targets.len() {
        targets[idx as usize]
    } else {
        default
    }
}

/// `LookupSwitch` target selection (pairs sorted by key).
#[inline]
pub(crate) fn lookup_switch_target(pairs: &[(i32, u32)], default: u32, k: i32) -> u32 {
    pairs
        .binary_search_by_key(&k, |(key, _)| *key)
        .map(|i| pairs[i].1)
        .unwrap_or(default)
}

/// `Return`/`IReturn`/`LReturn`/`DReturn`/`AReturn` — pop the frame, push
/// the result into the caller (or finish the thread).
pub(crate) fn ret(
    vm: &mut Vm,
    program: &Program,
    op: &Op,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let ret = match op {
        Op::Return => None,
        _ => Some(vm.pop()),
    };
    // Return address: the caller's next instruction (or the VMM).
    let t = &mut vm.threads[vm.cur];
    let popped = t.frames.pop().expect("non-empty");
    t.sp -= popped.locals.len() as u64;
    let ret_target = t
        .frames
        .last()
        .map(|f| program.method(f.method).code_base + 4 * f.ip as u64)
        .unwrap_or(map::VMM);
    if let Some(f) = t.frames.last_mut() {
        if let Some(v) = ret {
            f.stack.push(v);
        }
    } else {
        t.state = ThreadState::Done;
    }
    vm.charge(cls, pc, &[], Some((true, ret_target)));
    Ok(())
}
