//! Integer, long, and floating-point arithmetic, conversions, comparisons.
//!
//! The `*_val` helpers give each non-trapping opcode's value semantics;
//! the interpreter loop ([`super::fused`]) evaluates its inline arms
//! through them. Division and remainder, which can throw, have handlers
//! here.

use jbc::{Op, OpClass, Program};

use crate::error::VmError;
use crate::value::Value;
use crate::vmcore::Vm;

/// Non-trapping integer binary ops (`IAdd`..`IUShr`).
#[inline]
pub(crate) fn int_binop_val(op: &Op, a: i32, b: i32) -> i32 {
    use Op::*;
    match op {
        IAdd => a.wrapping_add(b),
        ISub => a.wrapping_sub(b),
        IMul => a.wrapping_mul(b),
        IAnd => a & b,
        IOr => a | b,
        IXor => a ^ b,
        IShl => a.wrapping_shl(b as u32 & 31),
        IShr => a.wrapping_shr(b as u32 & 31),
        IUShr => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
        _ => unreachable!("int binop"),
    }
}

/// Non-trapping long binary ops (`LAdd`..`LXor`).
#[inline]
pub(crate) fn long_binop_val(op: &Op, a: i64, b: i64) -> i64 {
    use Op::*;
    match op {
        LAdd => a.wrapping_add(b),
        LSub => a.wrapping_sub(b),
        LMul => a.wrapping_mul(b),
        LAnd => a & b,
        LOr => a | b,
        LXor => a ^ b,
        _ => unreachable!("long binop"),
    }
}

/// Long shifts (`LShl`/`LShr`/`LUShr`; count is an i32, JVM convention).
#[inline]
pub(crate) fn long_shift_val(op: &Op, a: i64, b: i32) -> i64 {
    use Op::*;
    match op {
        LShl => a.wrapping_shl(b as u32 & 63),
        LShr => a.wrapping_shr(b as u32 & 63),
        LUShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        _ => unreachable!("long shift"),
    }
}

/// Double binary ops (`DAdd`..`DRem`; IEEE-754, never traps).
#[inline]
pub(crate) fn dbl_binop_val(op: &Op, a: f64, b: f64) -> f64 {
    use Op::*;
    match op {
        DAdd => a + b,
        DSub => a - b,
        DMul => a * b,
        DDiv => a / b,
        _ => a % b,
    }
}

/// Numeric conversions (`I2L`..`I2S`).
#[inline]
pub(crate) fn conv_val(op: &Op, v: Value) -> Value {
    use Op::*;
    match op {
        I2L => Value::I64(v.as_i32() as i64),
        I2D => Value::F64(v.as_i32() as f64),
        L2I => Value::I32(v.as_i64() as i32),
        L2D => Value::F64(v.as_i64() as f64),
        D2I => Value::I32(v.as_f64() as i32), // Saturating; NaN → 0.
        D2L => Value::I64(v.as_f64() as i64),
        I2B => Value::I32(v.as_i32() as i8 as i32),
        I2C => Value::I32(v.as_i32() as u16 as i32),
        I2S => Value::I32(v.as_i32() as i16 as i32),
        _ => unreachable!("conversion"),
    }
}

/// `LCmp` result.
#[inline]
pub(crate) fn lcmp_val(a: i64, b: i64) -> i32 {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

/// `DCmpL`/`DCmpG` result (`nan_val` is -1 for L, 1 for G).
#[inline]
pub(crate) fn dcmp_val(a: f64, b: f64, nan_val: i32) -> i32 {
    if a.is_nan() || b.is_nan() {
        nan_val
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}

// ---- trapping handlers -----------------------------------------------------

/// `IDiv`/`IRem` — may throw `ArithmeticException`.
pub(crate) fn int_divrem(
    vm: &mut Vm,
    program: &Program,
    op: &Op,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let b = vm.pop().as_i32();
    let a = vm.pop().as_i32();
    vm.charge(cls, pc, &[], None);
    if b == 0 {
        return vm.throw_builtin(program, "ArithmeticException");
    }
    let r = match op {
        Op::IDiv => a.wrapping_div(b),
        _ => a.wrapping_rem(b),
    };
    vm.push(Value::I32(r));
    Ok(())
}

/// `LDiv`/`LRem` — may throw `ArithmeticException`.
pub(crate) fn long_divrem(
    vm: &mut Vm,
    program: &Program,
    op: &Op,
    pc: u64,
    cls: OpClass,
) -> Result<(), VmError> {
    let b = vm.pop().as_i64();
    let a = vm.pop().as_i64();
    vm.charge(cls, pc, &[], None);
    if b == 0 {
        return vm.throw_builtin(program, "ArithmeticException");
    }
    let r = match op {
        Op::LDiv => a.wrapping_div(b),
        _ => a.wrapping_rem(b),
    };
    vm.push(Value::I64(r));
    Ok(())
}
