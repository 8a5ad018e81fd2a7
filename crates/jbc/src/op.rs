//! The instruction set.
//!
//! Each variant of [`Op`] is one bytecode instruction. Branch targets are
//! absolute indices into the owning method's code array (the builder resolves
//! labels to indices). For timing purposes every instruction is considered to
//! occupy four bytes of the simulated instruction stream, so the fetch
//! address of instruction `i` in a method with code base `b` is `b + 4 * i`.

use serde::{Deserialize, Serialize};

use crate::program::{ClassId, FieldId, MethodId, NativeId};

/// Element type of a primitive or reference array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemTy {
    /// 8-bit signed integers (`byte[]`).
    I8,
    /// 16-bit unsigned integers (`char[]`).
    U16,
    /// 32-bit signed integers (`int[]`).
    I32,
    /// 64-bit signed integers (`long[]`).
    I64,
    /// 64-bit IEEE-754 floats (`double[]`).
    F64,
    /// Object references.
    Ref,
}

impl ElemTy {
    /// Size in bytes of one element in the simulated heap.
    pub fn byte_size(self) -> u32 {
        match self {
            ElemTy::I8 => 1,
            ElemTy::U16 => 2,
            ElemTy::I32 => 4,
            ElemTy::I64 | ElemTy::F64 | ElemTy::Ref => 8,
        }
    }
}

/// A coarse classification of opcodes used by the timing model.
///
/// The in-order core model (crate `sim-core`) assigns a base cycle cost per
/// class; the memory hierarchy adds the data-dependent part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// No-ops and constants pushed from the instruction stream.
    Const,
    /// Local variable loads/stores (register-file-like accesses).
    Local,
    /// Pure operand-stack shuffling.
    Stack,
    /// Integer ALU operations.
    AluInt,
    /// Integer multiply.
    MulInt,
    /// Integer divide/remainder.
    DivInt,
    /// Floating-point add/sub/neg/compare.
    AluFp,
    /// Floating-point multiply.
    MulFp,
    /// Floating-point divide/remainder.
    DivFp,
    /// Conversions between numeric types.
    Conv,
    /// Control transfer (branches, switches, goto).
    Branch,
    /// Heap loads (fields, array elements).
    HeapLoad,
    /// Heap stores (fields, array elements).
    HeapStore,
    /// Object/array allocation.
    Alloc,
    /// Method invocation and return.
    Call,
    /// Exception throw.
    Throw,
    /// Monitor enter/exit.
    Monitor,
    /// Native call (cost modeled by the native itself).
    Native,
}

/// One bytecode instruction.
///
/// The set mirrors the JVM's structure: a stack machine with typed
/// arithmetic, local variables, field/array access, virtual dispatch, and
/// structured exception handling — and, like the JVM, no interrupts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    // --- Constants -----------------------------------------------------
    /// Do nothing.
    Nop,
    /// Push a 32-bit integer constant.
    IConst(i32),
    /// Push a 64-bit integer constant.
    LConst(i64),
    /// Push a 64-bit float constant.
    DConst(f64),
    /// Push the null reference.
    AConstNull,
    /// Push a reference to interned string constant `n` from the pool.
    LdcStr(u16),

    // --- Locals --------------------------------------------------------
    /// Push `int` local `n`.
    ILoad(u16),
    /// Push `long` local `n`.
    LLoad(u16),
    /// Push `double` local `n`.
    DLoad(u16),
    /// Push reference local `n`.
    ALoad(u16),
    /// Pop an `int` into local `n`.
    IStore(u16),
    /// Pop a `long` into local `n`.
    LStore(u16),
    /// Pop a `double` into local `n`.
    DStore(u16),
    /// Pop a reference into local `n`.
    AStore(u16),
    /// Add the immediate to `int` local `n` without touching the stack.
    IInc(u16, i16),

    // --- Operand stack -------------------------------------------------
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top of stack and insert it below the second slot.
    DupX1,
    /// Swap the two top slots.
    Swap,

    // --- Integer (i32) arithmetic ---------------------------------------
    /// `int` addition (wrapping).
    IAdd,
    /// `int` subtraction (wrapping).
    ISub,
    /// `int` multiplication (wrapping).
    IMul,
    /// `int` division; throws `ArithmeticException` on divide-by-zero.
    IDiv,
    /// `int` remainder; throws `ArithmeticException` on divide-by-zero.
    IRem,
    /// `int` negation.
    INeg,
    /// `int` shift left (count masked to 5 bits).
    IShl,
    /// `int` arithmetic shift right.
    IShr,
    /// `int` logical shift right.
    IUShr,
    /// `int` bitwise and.
    IAnd,
    /// `int` bitwise or.
    IOr,
    /// `int` bitwise xor.
    IXor,

    // --- Long (i64) arithmetic ------------------------------------------
    /// `long` addition (wrapping).
    LAdd,
    /// `long` subtraction (wrapping).
    LSub,
    /// `long` multiplication (wrapping).
    LMul,
    /// `long` division; throws on divide-by-zero.
    LDiv,
    /// `long` remainder; throws on divide-by-zero.
    LRem,
    /// `long` negation.
    LNeg,
    /// `long` shift left (count masked to 6 bits).
    LShl,
    /// `long` arithmetic shift right.
    LShr,
    /// `long` logical shift right.
    LUShr,
    /// `long` bitwise and.
    LAnd,
    /// `long` bitwise or.
    LOr,
    /// `long` bitwise xor.
    LXor,

    // --- Double (f64) arithmetic ------------------------------------------
    /// `double` addition.
    DAdd,
    /// `double` subtraction.
    DSub,
    /// `double` multiplication.
    DMul,
    /// `double` division.
    DDiv,
    /// `double` remainder.
    DRem,
    /// `double` negation.
    DNeg,

    // --- Conversions -----------------------------------------------------
    /// `int` to `long`.
    I2L,
    /// `int` to `double`.
    I2D,
    /// `long` to `int` (truncating).
    L2I,
    /// `long` to `double`.
    L2D,
    /// `double` to `int` (saturating, NaN maps to 0).
    D2I,
    /// `double` to `long` (saturating, NaN maps to 0).
    D2L,
    /// Truncate `int` to signed 8 bits and sign-extend.
    I2B,
    /// Truncate `int` to unsigned 16 bits and zero-extend.
    I2C,
    /// Truncate `int` to signed 16 bits and sign-extend.
    I2S,

    // --- Comparison -------------------------------------------------------
    /// Compare two `long`s, pushing -1/0/1.
    LCmp,
    /// Compare two `double`s, pushing -1/0/1; NaN compares as -1.
    DCmpL,
    /// Compare two `double`s, pushing -1/0/1; NaN compares as 1.
    DCmpG,

    // --- Control flow -----------------------------------------------------
    /// Unconditional jump to code index.
    Goto(u32),
    /// Jump if `int` top-of-stack == 0.
    IfEq(u32),
    /// Jump if `int` top-of-stack != 0.
    IfNe(u32),
    /// Jump if `int` top-of-stack < 0.
    IfLt(u32),
    /// Jump if `int` top-of-stack >= 0.
    IfGe(u32),
    /// Jump if `int` top-of-stack > 0.
    IfGt(u32),
    /// Jump if `int` top-of-stack <= 0.
    IfLe(u32),
    /// Jump if the two `int`s on top are equal.
    IfICmpEq(u32),
    /// Jump if the two `int`s on top are not equal.
    IfICmpNe(u32),
    /// Jump if second-from-top < top (`int`).
    IfICmpLt(u32),
    /// Jump if second-from-top >= top (`int`).
    IfICmpGe(u32),
    /// Jump if second-from-top > top (`int`).
    IfICmpGt(u32),
    /// Jump if second-from-top <= top (`int`).
    IfICmpLe(u32),
    /// Jump if the two references on top are identical.
    IfACmpEq(u32),
    /// Jump if the two references on top differ.
    IfACmpNe(u32),
    /// Jump if the reference on top is null.
    IfNull(u32),
    /// Jump if the reference on top is non-null.
    IfNonNull(u32),
    /// Dense jump table: index `low..low+targets.len()` selects a target.
    TableSwitch {
        /// Lowest matched key.
        low: i32,
        /// Targets for keys `low..low + targets.len()`.
        targets: Vec<u32>,
        /// Target when the key is out of range.
        default: u32,
    },
    /// Sparse jump table of `(key, target)` pairs, sorted by key.
    LookupSwitch {
        /// `(key, target)` pairs, keys strictly increasing (`verify`
        /// rejects any other order).
        pairs: Vec<(i32, u32)>,
        /// Target when no key matches.
        default: u32,
    },

    // --- Objects -----------------------------------------------------------
    /// Allocate an instance of the class, pushing the reference.
    New(ClassId),
    /// Pop a reference, push the value of the instance field.
    GetField(FieldId),
    /// Pop value then reference, store into the instance field.
    PutField(FieldId),
    /// Push the value of a static field.
    GetStatic(FieldId),
    /// Pop a value into a static field.
    PutStatic(FieldId),
    /// Pop a reference, push 1 if it is an instance of the class else 0.
    InstanceOf(ClassId),
    /// Throw `ClassCastException` unless top-of-stack is null or an instance.
    CheckCast(ClassId),

    // --- Arrays -------------------------------------------------------------
    /// Pop an `int` length, push a new array of the element type.
    NewArray(ElemTy),
    /// Pop an array reference, push its length.
    ArrayLength,
    /// Pop index and `int[]` ref, push the element.
    IALoad,
    /// Pop value, index, `int[]` ref; store the element.
    IAStore,
    /// Pop index and `long[]` ref, push the element.
    LALoad,
    /// Pop value, index, `long[]` ref; store the element.
    LAStore,
    /// Pop index and `double[]` ref, push the element.
    DALoad,
    /// Pop value, index, `double[]` ref; store the element.
    DAStore,
    /// Pop index and `ref[]` ref, push the element.
    AALoad,
    /// Pop value, index, `ref[]` ref; store the element.
    AAStore,
    /// Pop index and `byte[]` ref, push the sign-extended element.
    BALoad,
    /// Pop value, index, `byte[]` ref; store the truncated element.
    BAStore,
    /// Pop index and `char[]` ref, push the zero-extended element.
    CALoad,
    /// Pop value, index, `char[]` ref; store the truncated element.
    CAStore,

    // --- Calls ---------------------------------------------------------------
    /// Call a static method.
    InvokeStatic(MethodId),
    /// Call an instance method with virtual dispatch on the receiver.
    InvokeVirtual(MethodId),
    /// Call an instance method without dispatch (constructors, super calls).
    InvokeSpecial(MethodId),
    /// Call into the VM's native interface.
    InvokeNative(NativeId),
    /// Return `void`.
    Return,
    /// Return an `int`.
    IReturn,
    /// Return a `long`.
    LReturn,
    /// Return a `double`.
    DReturn,
    /// Return a reference.
    AReturn,

    // --- Exceptions -------------------------------------------------------------
    /// Pop a throwable reference and raise it.
    AThrow,

    // --- Monitors ---------------------------------------------------------------
    /// Acquire the monitor of the reference on top of stack.
    MonitorEnter,
    /// Release the monitor of the reference on top of stack.
    MonitorExit,
}

impl Op {
    /// The timing class of this opcode.
    pub fn class(&self) -> OpClass {
        use Op::*;
        match self {
            Nop | IConst(_) | LConst(_) | DConst(_) | AConstNull | LdcStr(_) => OpClass::Const,
            ILoad(_) | LLoad(_) | DLoad(_) | ALoad(_) | IStore(_) | LStore(_) | DStore(_)
            | AStore(_) | IInc(..) => OpClass::Local,
            Pop | Dup | DupX1 | Swap => OpClass::Stack,
            IAdd | ISub | INeg | IShl | IShr | IUShr | IAnd | IOr | IXor | LAdd | LSub | LNeg
            | LShl | LShr | LUShr | LAnd | LOr | LXor | LCmp => OpClass::AluInt,
            IMul | LMul => OpClass::MulInt,
            IDiv | IRem | LDiv | LRem => OpClass::DivInt,
            DAdd | DSub | DNeg | DCmpL | DCmpG => OpClass::AluFp,
            DMul => OpClass::MulFp,
            DDiv | DRem => OpClass::DivFp,
            I2L | I2D | L2I | L2D | D2I | D2L | I2B | I2C | I2S => OpClass::Conv,
            Goto(_)
            | IfEq(_)
            | IfNe(_)
            | IfLt(_)
            | IfGe(_)
            | IfGt(_)
            | IfLe(_)
            | IfICmpEq(_)
            | IfICmpNe(_)
            | IfICmpLt(_)
            | IfICmpGe(_)
            | IfICmpGt(_)
            | IfICmpLe(_)
            | IfACmpEq(_)
            | IfACmpNe(_)
            | IfNull(_)
            | IfNonNull(_)
            | TableSwitch { .. }
            | LookupSwitch { .. } => OpClass::Branch,
            GetField(_) | GetStatic(_) | IALoad | LALoad | DALoad | AALoad | BALoad | CALoad
            | ArrayLength | InstanceOf(_) | CheckCast(_) => OpClass::HeapLoad,
            PutField(_) | PutStatic(_) | IAStore | LAStore | DAStore | AAStore | BAStore
            | CAStore => OpClass::HeapStore,
            New(_) | NewArray(_) => OpClass::Alloc,
            InvokeStatic(_) | InvokeVirtual(_) | InvokeSpecial(_) | Return | IReturn | LReturn
            | DReturn | AReturn => OpClass::Call,
            InvokeNative(_) => OpClass::Native,
            AThrow => OpClass::Throw,
            MonitorEnter | MonitorExit => OpClass::Monitor,
        }
    }

    /// True if this opcode may transfer control to a non-sequential index.
    pub fn is_branch(&self) -> bool {
        matches!(self.class(), OpClass::Branch)
    }

    /// All branch targets encoded in the instruction (empty for non-branches).
    pub fn branch_targets(&self) -> Vec<u32> {
        use Op::*;
        match self {
            Goto(t) | IfEq(t) | IfNe(t) | IfLt(t) | IfGe(t) | IfGt(t) | IfLe(t) | IfICmpEq(t)
            | IfICmpNe(t) | IfICmpLt(t) | IfICmpGe(t) | IfICmpGt(t) | IfICmpLe(t) | IfACmpEq(t)
            | IfACmpNe(t) | IfNull(t) | IfNonNull(t) => vec![*t],
            TableSwitch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            LookupSwitch { pairs, default } => {
                let mut v: Vec<u32> = pairs.iter().map(|(_, t)| *t).collect();
                v.push(*default);
                v
            }
            _ => Vec::new(),
        }
    }

    /// Rewrite every branch target through `f` (used by the label resolver).
    pub fn map_targets(&mut self, mut f: impl FnMut(u32) -> u32) {
        use Op::*;
        match self {
            Goto(t) | IfEq(t) | IfNe(t) | IfLt(t) | IfGe(t) | IfGt(t) | IfLe(t) | IfICmpEq(t)
            | IfICmpNe(t) | IfICmpLt(t) | IfICmpGe(t) | IfICmpGt(t) | IfICmpLe(t) | IfACmpEq(t)
            | IfACmpNe(t) | IfNull(t) | IfNonNull(t) => *t = f(*t),
            TableSwitch {
                targets, default, ..
            } => {
                for t in targets.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            LookupSwitch { pairs, default } => {
                for (_, t) in pairs.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            _ => {}
        }
    }

    /// Net change in operand-stack depth, if statically known.
    ///
    /// Call and native instructions return `None` because their effect
    /// depends on the callee signature; the verifier special-cases them.
    pub fn stack_delta(&self) -> Option<i32> {
        use Op::*;
        Some(match self {
            Nop | IInc(..) | Goto(_) => 0,
            IConst(_) | LConst(_) | DConst(_) | AConstNull | LdcStr(_) => 1,
            ILoad(_) | LLoad(_) | DLoad(_) | ALoad(_) => 1,
            IStore(_) | LStore(_) | DStore(_) | AStore(_) => -1,
            Pop => -1,
            Dup | DupX1 => 1,
            Swap => 0,
            IAdd | ISub | IMul | IDiv | IRem | IShl | IShr | IUShr | IAnd | IOr | IXor => -1,
            LAdd | LSub | LMul | LDiv | LRem | LShl | LShr | LUShr | LAnd | LOr | LXor => -1,
            DAdd | DSub | DMul | DDiv | DRem => -1,
            INeg | LNeg | DNeg => 0,
            I2L | I2D | L2I | L2D | D2I | D2L | I2B | I2C | I2S => 0,
            LCmp | DCmpL | DCmpG => -1,
            IfEq(_) | IfNe(_) | IfLt(_) | IfGe(_) | IfGt(_) | IfLe(_) | IfNull(_)
            | IfNonNull(_) => -1,
            IfICmpEq(_) | IfICmpNe(_) | IfICmpLt(_) | IfICmpGe(_) | IfICmpGt(_) | IfICmpLe(_)
            | IfACmpEq(_) | IfACmpNe(_) => -2,
            TableSwitch { .. } | LookupSwitch { .. } => -1,
            New(_) => 1,
            GetField(_) => 0,
            PutField(_) => -2,
            GetStatic(_) => 1,
            PutStatic(_) => -1,
            InstanceOf(_) | CheckCast(_) => 0,
            NewArray(_) => 0,
            ArrayLength => 0,
            IALoad | LALoad | DALoad | AALoad | BALoad | CALoad => -1,
            IAStore | LAStore | DAStore | AAStore | BAStore | CAStore => -3,
            Return => 0,
            IReturn | LReturn | DReturn | AReturn | AThrow => -1,
            MonitorEnter | MonitorExit => -1,
            InvokeStatic(_) | InvokeVirtual(_) | InvokeSpecial(_) | InvokeNative(_) => return None,
        })
    }

    /// The canonical lower-case mnemonic, as used by the disassembler.
    pub fn mnemonic(&self) -> &'static str {
        use Op::*;
        match self {
            Nop => "nop",
            IConst(_) => "iconst",
            LConst(_) => "lconst",
            DConst(_) => "dconst",
            AConstNull => "aconst_null",
            LdcStr(_) => "ldc_str",
            ILoad(_) => "iload",
            LLoad(_) => "lload",
            DLoad(_) => "dload",
            ALoad(_) => "aload",
            IStore(_) => "istore",
            LStore(_) => "lstore",
            DStore(_) => "dstore",
            AStore(_) => "astore",
            IInc(..) => "iinc",
            Pop => "pop",
            Dup => "dup",
            DupX1 => "dup_x1",
            Swap => "swap",
            IAdd => "iadd",
            ISub => "isub",
            IMul => "imul",
            IDiv => "idiv",
            IRem => "irem",
            INeg => "ineg",
            IShl => "ishl",
            IShr => "ishr",
            IUShr => "iushr",
            IAnd => "iand",
            IOr => "ior",
            IXor => "ixor",
            LAdd => "ladd",
            LSub => "lsub",
            LMul => "lmul",
            LDiv => "ldiv",
            LRem => "lrem",
            LNeg => "lneg",
            LShl => "lshl",
            LShr => "lshr",
            LUShr => "lushr",
            LAnd => "land",
            LOr => "lor",
            LXor => "lxor",
            DAdd => "dadd",
            DSub => "dsub",
            DMul => "dmul",
            DDiv => "ddiv",
            DRem => "drem",
            DNeg => "dneg",
            I2L => "i2l",
            I2D => "i2d",
            L2I => "l2i",
            L2D => "l2d",
            D2I => "d2i",
            D2L => "d2l",
            I2B => "i2b",
            I2C => "i2c",
            I2S => "i2s",
            LCmp => "lcmp",
            DCmpL => "dcmpl",
            DCmpG => "dcmpg",
            Goto(_) => "goto",
            IfEq(_) => "ifeq",
            IfNe(_) => "ifne",
            IfLt(_) => "iflt",
            IfGe(_) => "ifge",
            IfGt(_) => "ifgt",
            IfLe(_) => "ifle",
            IfICmpEq(_) => "if_icmpeq",
            IfICmpNe(_) => "if_icmpne",
            IfICmpLt(_) => "if_icmplt",
            IfICmpGe(_) => "if_icmpge",
            IfICmpGt(_) => "if_icmpgt",
            IfICmpLe(_) => "if_icmple",
            IfACmpEq(_) => "if_acmpeq",
            IfACmpNe(_) => "if_acmpne",
            IfNull(_) => "ifnull",
            IfNonNull(_) => "ifnonnull",
            TableSwitch { .. } => "tableswitch",
            LookupSwitch { .. } => "lookupswitch",
            New(_) => "new",
            GetField(_) => "getfield",
            PutField(_) => "putfield",
            GetStatic(_) => "getstatic",
            PutStatic(_) => "putstatic",
            InstanceOf(_) => "instanceof",
            CheckCast(_) => "checkcast",
            NewArray(_) => "newarray",
            ArrayLength => "arraylength",
            IALoad => "iaload",
            IAStore => "iastore",
            LALoad => "laload",
            LAStore => "lastore",
            DALoad => "daload",
            DAStore => "dastore",
            AALoad => "aaload",
            AAStore => "aastore",
            BALoad => "baload",
            BAStore => "bastore",
            CALoad => "caload",
            CAStore => "castore",
            InvokeStatic(_) => "invokestatic",
            InvokeVirtual(_) => "invokevirtual",
            InvokeSpecial(_) => "invokespecial",
            InvokeNative(_) => "invokenative",
            Return => "return",
            IReturn => "ireturn",
            LReturn => "lreturn",
            DReturn => "dreturn",
            AReturn => "areturn",
            AThrow => "athrow",
            MonitorEnter => "monitorenter",
            MonitorExit => "monitorexit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_targets_of_plain_ops_are_empty() {
        assert!(Op::IAdd.branch_targets().is_empty());
        assert!(Op::Nop.branch_targets().is_empty());
        assert!(Op::InvokeStatic(MethodId(3)).branch_targets().is_empty());
    }

    #[test]
    fn branch_targets_of_conditionals() {
        assert_eq!(Op::IfEq(7).branch_targets(), vec![7]);
        assert_eq!(Op::Goto(12).branch_targets(), vec![12]);
        let ts = Op::TableSwitch {
            low: 0,
            targets: vec![1, 2, 3],
            default: 9,
        };
        assert_eq!(ts.branch_targets(), vec![1, 2, 3, 9]);
        let ls = Op::LookupSwitch {
            pairs: vec![(5, 10), (9, 20)],
            default: 30,
        };
        assert_eq!(ls.branch_targets(), vec![10, 20, 30]);
    }

    #[test]
    fn map_targets_rewrites_all_targets() {
        let mut op = Op::TableSwitch {
            low: 0,
            targets: vec![1, 2],
            default: 3,
        };
        op.map_targets(|t| t + 100);
        assert_eq!(op.branch_targets(), vec![101, 102, 103]);

        let mut g = Op::Goto(4);
        g.map_targets(|t| t * 2);
        assert_eq!(g, Op::Goto(8));
    }

    #[test]
    fn stack_delta_consistency() {
        assert_eq!(Op::IConst(1).stack_delta(), Some(1));
        assert_eq!(Op::IAdd.stack_delta(), Some(-1));
        assert_eq!(Op::IAStore.stack_delta(), Some(-3));
        assert_eq!(Op::InvokeStatic(MethodId(0)).stack_delta(), None);
    }

    #[test]
    fn op_classes_are_sane() {
        assert_eq!(Op::IAdd.class(), OpClass::AluInt);
        assert_eq!(Op::DMul.class(), OpClass::MulFp);
        assert_eq!(Op::Goto(0).class(), OpClass::Branch);
        assert_eq!(Op::GetField(FieldId(0)).class(), OpClass::HeapLoad);
        assert_eq!(Op::PutField(FieldId(0)).class(), OpClass::HeapStore);
        assert_eq!(Op::InvokeNative(NativeId(0)).class(), OpClass::Native);
        assert!(Op::IfEq(0).is_branch());
        assert!(!Op::IAdd.is_branch());
    }

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemTy::I8.byte_size(), 1);
        assert_eq!(ElemTy::U16.byte_size(), 2);
        assert_eq!(ElemTy::I32.byte_size(), 4);
        assert_eq!(ElemTy::F64.byte_size(), 8);
    }

    #[test]
    fn mnemonics_are_unique_for_distinct_ops() {
        let ops = [
            Op::IAdd,
            Op::ISub,
            Op::LAdd,
            Op::DAdd,
            Op::Goto(0),
            Op::IfEq(0),
            Op::Return,
            Op::IReturn,
        ];
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            assert!(seen.insert(op.mnemonic()), "duplicate {}", op.mnemonic());
        }
    }
}
