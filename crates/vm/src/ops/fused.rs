//! The interpreter loop: one decode, one prologue and one match per
//! instruction.
//!
//! [`step`] runs the current thread until its quantum expires or one cold
//! opcode has executed. Each instruction is decoded once and pays the
//! icount/budget/limit prologue once. The hot set — constants, local
//! access, stack shuffles, non-trapping arithmetic, conversions,
//! comparisons, branches/switches, and static field access — executes
//! inline while the current frame is borrowed exactly once. Everything
//! else (heap traffic, calls, natives, division, returns, monitors —
//! anything that can allocate, throw, block, or switch threads) calls its
//! handler in [`super::arith`], [`super::control`], [`super::heap`] or
//! [`super::invoke`] and returns to the scheduler in [`Vm::run`].
//!
//! Timing identity: each arm's cost class, memory references and branch
//! outcome are pinned by the determinism goldens, whose opcode sweep
//! executes every inline arm.

use jbc::{Op, Program};
use machine::machine::map;

use super::{arith, charge, control, heap, invoke};
use crate::error::VmError;
use crate::value::{Value, NULL};
use crate::vmcore::Vm;

/// Execute instructions of the current thread until its quantum expires or
/// a cold opcode has run (then return to the outer scheduling loop).
pub(crate) fn step(vm: &mut Vm, program: &Program) -> Result<(), VmError> {
    use Op::*;
    loop {
        if vm.budget == 0 {
            return Ok(());
        }
        let cur = vm.cur;
        let (method, ip) = {
            let f = vm.threads[cur]
                .frames
                .last()
                .expect("runnable thread has a frame");
            (program.method(f.method), f.ip)
        };
        let op = &method.code[ip as usize];

        vm.icount += 1;
        vm.budget -= 1;
        if vm.icount > vm.cfg.instr_limit {
            return Err(VmError::InstrLimit);
        }
        if vm.machine.now_cycles() > vm.cfg.cycle_limit {
            return Err(VmError::InstrLimit);
        }

        // One disjoint borrow of everything a hot opcode can touch. Cold
        // arms stop using it and hand the whole `vm` to their handler.
        let Vm {
            threads,
            machine,
            cost,
            string_refs,
            statics,
            ..
        } = &mut *vm;
        let f = threads[cur]
            .frames
            .last_mut()
            .expect("runnable thread has a frame");
        let pc = method.code_base + 4 * ip as u64;
        let cls = op.class();
        let base = f.base_vaddr;
        // Pre-advance: fall-through is the default; branch arms overwrite,
        // and exception handling matches handlers against `ip - 1`.
        f.ip = ip + 1;
        let stack = &mut f.stack;

        macro_rules! pop {
            () => {
                stack.pop().expect("verified stack depth")
            };
        }

        match op {
            Nop => charge(machine, cost, cls, pc, &[], None),
            IConst(v) => {
                stack.push(Value::I32(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            LConst(v) => {
                stack.push(Value::I64(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            DConst(v) => {
                stack.push(Value::F64(*v));
                charge(machine, cost, cls, pc, &[], None);
            }
            AConstNull => {
                stack.push(Value::Ref(NULL));
                charge(machine, cost, cls, pc, &[], None);
            }
            LdcStr(i) => {
                stack.push(Value::Ref(string_refs[*i as usize]));
                charge(machine, cost, cls, pc, &[], None);
            }

            ILoad(n) | LLoad(n) | DLoad(n) | ALoad(n) => {
                stack.push(f.locals[*n as usize]);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(base + 8 * *n as u64, false)],
                    None,
                );
            }
            IStore(n) | LStore(n) | DStore(n) | AStore(n) => {
                let v = pop!();
                f.locals[*n as usize] = v;
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(base + 8 * *n as u64, true)],
                    None,
                );
            }
            IInc(n, d) => {
                let idx = *n as usize;
                let old = f.locals[idx].as_i32();
                f.locals[idx] = Value::I32(old.wrapping_add(*d as i32));
                let a = base + 8 * *n as u64;
                charge(machine, cost, cls, pc, &[(a, false), (a, true)], None);
            }

            Pop => {
                pop!();
                charge(machine, cost, cls, pc, &[], None);
            }
            Dup => {
                let v = *stack.last().expect("verified");
                stack.push(v);
                charge(machine, cost, cls, pc, &[], None);
            }
            DupX1 => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
                stack.push(a);
                charge(machine, cost, cls, pc, &[], None);
            }
            Swap => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
                charge(machine, cost, cls, pc, &[], None);
            }

            IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr | IUShr => {
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                stack.push(Value::I32(arith::int_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            INeg => {
                let a = pop!().as_i32();
                stack.push(Value::I32(a.wrapping_neg()));
                charge(machine, cost, cls, pc, &[], None);
            }
            LAdd | LSub | LMul | LAnd | LOr | LXor => {
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I64(arith::long_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            LShl | LShr | LUShr => {
                let b = pop!().as_i32();
                let a = pop!().as_i64();
                stack.push(Value::I64(arith::long_shift_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            LNeg => {
                let a = pop!().as_i64();
                stack.push(Value::I64(a.wrapping_neg()));
                charge(machine, cost, cls, pc, &[], None);
            }
            DAdd | DSub | DMul | DDiv | DRem => {
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                stack.push(Value::F64(arith::dbl_binop_val(op, a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            DNeg => {
                let a = pop!().as_f64();
                stack.push(Value::F64(-a));
                charge(machine, cost, cls, pc, &[], None);
            }

            I2L | I2D | L2I | L2D | D2I | D2L | I2B | I2C | I2S => {
                let v = pop!();
                stack.push(arith::conv_val(op, v));
                charge(machine, cost, cls, pc, &[], None);
            }

            LCmp => {
                let b = pop!().as_i64();
                let a = pop!().as_i64();
                stack.push(Value::I32(arith::lcmp_val(a, b)));
                charge(machine, cost, cls, pc, &[], None);
            }
            DCmpL | DCmpG => {
                let b = pop!().as_f64();
                let a = pop!().as_f64();
                let nan = if matches!(op, DCmpL) { -1 } else { 1 };
                stack.push(Value::I32(arith::dcmp_val(a, b, nan)));
                charge(machine, cost, cls, pc, &[], None);
            }

            Goto(t) => {
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * *t as u64)),
                );
                f.ip = *t;
            }
            IfEq(t) | IfNe(t) | IfLt(t) | IfGe(t) | IfGt(t) | IfLe(t) => {
                let a = pop!().as_i32();
                let taken = control::if_zero_taken(op, a);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfICmpEq(t) | IfICmpNe(t) | IfICmpLt(t) | IfICmpGe(t) | IfICmpGt(t) | IfICmpLe(t) => {
                let b = pop!().as_i32();
                let a = pop!().as_i32();
                let taken = control::if_icmp_taken(op, a, b);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfACmpEq(t) | IfACmpNe(t) => {
                let b = pop!().as_ref();
                let a = pop!().as_ref();
                let taken = if matches!(op, IfACmpEq(_)) {
                    a == b
                } else {
                    a != b
                };
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            IfNull(t) | IfNonNull(t) => {
                let a = pop!().as_ref();
                let taken = (a == NULL) == matches!(op, IfNull(_));
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((taken, method.code_base + 4 * *t as u64)),
                );
                if taken {
                    f.ip = *t;
                }
            }
            TableSwitch {
                low,
                targets,
                default,
            } => {
                let k = pop!().as_i32();
                let t = control::table_switch_target(*low, targets, *default, k);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * t as u64)),
                );
                f.ip = t;
            }
            LookupSwitch { pairs, default } => {
                let k = pop!().as_i32();
                let t = control::lookup_switch_target(pairs, *default, k);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[],
                    Some((true, method.code_base + 4 * t as u64)),
                );
                f.ip = t;
            }

            GetStatic(fid) => {
                let slot = program.field(*fid).slot as usize;
                stack.push(statics[slot]);
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(map::STATICS + 8 * slot as u64, false)],
                    None,
                );
            }
            PutStatic(fid) => {
                let v = pop!();
                let slot = program.field(*fid).slot as usize;
                statics[slot] = v;
                charge(
                    machine,
                    cost,
                    cls,
                    pc,
                    &[(map::STATICS + 8 * slot as u64, true)],
                    None,
                );
            }

            // Cold: each handler owns the rest of the instruction, then
            // control returns to the scheduler.
            IDiv | IRem => return arith::int_divrem(vm, program, op, pc, cls),
            LDiv | LRem => return arith::long_divrem(vm, program, op, pc, cls),
            Return | IReturn | LReturn | DReturn | AReturn => {
                return control::ret(vm, program, op, pc, cls)
            }

            New(c) => return heap::new_obj(vm, program, *c, pc, cls),
            GetField(fid) => return heap::get_field(vm, program, *fid, pc, cls),
            PutField(fid) => return heap::put_field(vm, program, *fid, pc, cls),
            InstanceOf(c) => {
                heap::instance_of(vm, program, *c, pc, cls);
                return Ok(());
            }
            CheckCast(c) => return heap::check_cast(vm, program, *c, pc, cls),
            NewArray(et) => return heap::new_array(vm, program, *et, pc, cls),
            ArrayLength => return heap::array_length(vm, program, pc, cls),
            IALoad | LALoad | DALoad | AALoad | BALoad | CALoad => {
                let idx = pop!().as_i32();
                let arr = pop!().as_ref();
                let kind = heap::ArrayKind::of_load(op);
                return heap::array_load(vm, program, kind, arr, idx, pc, cls);
            }
            IAStore | LAStore | DAStore | AAStore | BAStore | CAStore => {
                let val = pop!();
                let idx = pop!().as_i32();
                let arr = pop!().as_ref();
                return heap::array_store(vm, program, arr, idx, val, pc, cls);
            }

            InvokeStatic(m) => return invoke::invoke_static(vm, program, *m, pc, cls),
            InvokeVirtual(m) | InvokeSpecial(m) => {
                return invoke::invoke_instance(vm, program, op, *m, pc, cls)
            }
            InvokeNative(nid) => return invoke::invoke_native(vm, program, *nid, pc, cls),
            AThrow => return invoke::athrow(vm, program, pc, cls),
            MonitorEnter => return invoke::monitor_enter(vm, program, pc, cls),
            MonitorExit => return invoke::monitor_exit(vm, program, pc, cls),
        }
    }
}
