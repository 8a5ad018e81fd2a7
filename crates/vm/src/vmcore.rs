//! The interpreter: threads, frames, dispatch, and the native interface.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use jbc::{MethodId, OpClass, Program};
use machine::machine::map;
use machine::Machine;
use sim_core::{CostModel, Cycles};

use crate::error::VmError;
use crate::heap::{Heap, HeapObj};
use crate::natives::{DelayModel, NativeKind};
use crate::ops;
use crate::value::{Handle, Value};

/// How the VM treats the passage of idle time (see `wait_packet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStyle {
    /// Original execution: wait for real (simulated) device arrivals.
    Play,
    /// Time-deterministic replay: idle exactly until the logged arrival
    /// cycle, reproducing the wait (§2.5's "balance" requirement).
    Tdr,
    /// Functional replay (the XenTT-style baseline): skip waits entirely —
    /// the behavior that makes Fig. 3 diverge from the diagonal.
    Functional,
}

/// VM construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Engine cost model (Sanity interpreter, Oracle interpreter, JIT).
    pub cost: CostModel,
    /// Instructions per scheduling quantum (§3.2).
    pub quantum: u32,
    /// Hard cap on executed instructions (runaway guard).
    pub instr_limit: u64,
    /// Hard cap on simulated cycles (hang guard for idle loops).
    pub cycle_limit: Cycles,
    /// Maximum call depth per thread.
    pub max_call_depth: usize,
    /// Heap size in simulated bytes.
    pub heap_size: u64,
    /// Wait/idle semantics.
    pub replay_style: ReplayStyle,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            cost: CostModel::sanity_interpreter(),
            quantum: 10_000,
            instr_limit: 2_000_000_000,
            cycle_limit: 60_000_000_000, // 10 simulated minutes at 100 MHz.
            max_call_depth: 512,
            heap_size: 64 << 20,
            replay_style: ReplayStyle::Play,
        }
    }
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Every thread finished.
    Completed,
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// How the run ended.
    pub exit: ExitKind,
    /// Total instructions executed.
    pub icount: u64,
    /// Final TC cycle count.
    pub cycles: Cycles,
    /// Final wall-clock picoseconds.
    pub wall_ps: u128,
    /// Console output produced via the `println_*` natives.
    pub console: Vec<String>,
}

#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) ip: u32,
    pub(crate) locals: Vec<Value>,
    pub(crate) stack: Vec<Value>,
    /// Simulated address of local slot 0.
    pub(crate) base_vaddr: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    Runnable,
    Blocked(Handle),
    Done,
}

#[derive(Debug)]
pub(crate) struct VmThread {
    pub(crate) frames: Vec<Frame>,
    pub(crate) state: ThreadState,
    /// Stack pointer in slots within this thread's stack region.
    pub(crate) sp: u64,
}

#[derive(Debug)]
pub(crate) struct MonitorState {
    pub(crate) owner: usize,
    pub(crate) count: u32,
    pub(crate) waiting: VecDeque<usize>,
}

/// Per-thread stack region size in bytes.
const STACK_REGION: u64 = 0x40000;
/// Maximum number of threads (bounded by the stack area).
const MAX_THREADS: usize = 16;

/// The Sanity virtual machine. See the [crate docs](crate).
pub struct Vm {
    pub(crate) program: Arc<Program>,
    pub(crate) machine: Machine,
    pub(crate) cost: CostModel,
    pub(crate) cfg: VmConfig,
    pub(crate) heap: Heap,
    pub(crate) statics: Vec<Value>,
    pub(crate) string_refs: Vec<Handle>,
    pub(crate) natives: Vec<NativeKind>,
    pub(crate) threads: Vec<VmThread>,
    pub(crate) cur: usize,
    pub(crate) budget: u32,
    pub(crate) icount: u64,
    pub(crate) console: Vec<String>,
    pub(crate) files: Vec<Vec<u8>>,
    pub(crate) delay: Option<Box<dyn DelayModel>>,
    pub(crate) covert_enabled: bool,
    pub(crate) send_count: u64,
    pub(crate) monitors: HashMap<Handle, MonitorState>,
    pub(crate) gc_runs: u64,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("icount", &self.icount)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Load `program` onto `machine`.
    ///
    /// Verifies the program, resolves natives, interns string constants on
    /// the heap, and sets up the main thread at the entry point.
    pub fn new(program: Arc<Program>, machine: Machine, cfg: VmConfig) -> Result<Vm, VmError> {
        jbc::verify(&program).map_err(|e| VmError::Load(e.to_string()))?;
        let mut natives = Vec::with_capacity(program.natives.len());
        for n in &program.natives {
            natives.push(
                NativeKind::by_name(&n.name)
                    .ok_or_else(|| VmError::UnknownNative(n.name.clone()))?,
            );
        }
        let mut heap = Heap::new(map::HEAP, cfg.heap_size);
        let mut string_refs = Vec::with_capacity(program.strings.len());
        for s in &program.strings {
            let (h, _) = heap
                .alloc(HeapObj::Str(s.clone()))
                .ok_or(VmError::OutOfMemory)?;
            string_refs.push(h);
        }
        let statics = program
            .fields
            .iter()
            .filter(|f| f.is_static)
            .map(|f| Value::zero_of(f.ty))
            .collect::<Vec<_>>();
        // Statics were assigned dense slots in declaration order; re-order.
        let mut ordered = vec![Value::I32(0); statics.len()];
        for f in program.fields.iter().filter(|f| f.is_static) {
            ordered[f.slot as usize] = Value::zero_of(f.ty);
        }

        let entry = program.entry;
        let mut vm = Vm {
            program,
            machine,
            cost: cfg.cost,
            cfg,
            heap,
            statics: ordered,
            string_refs,
            natives,
            threads: Vec::new(),
            cur: 0,
            budget: cfg.quantum,
            icount: 0,
            console: Vec::new(),
            files: Vec::new(),
            delay: None,
            covert_enabled: false,
            send_count: 0,
            monitors: HashMap::new(),
            gc_runs: 0,
        };
        vm.spawn_thread(entry)?;
        Ok(vm)
    }

    // ---- public accessors --------------------------------------------------

    /// The global instruction counter (§3.2).
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (harness use: packet delivery, replay).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Install the file store backing `file_read`/`file_size`.
    pub fn set_files(&mut self, files: Vec<Vec<u8>>) {
        self.files = files;
    }

    /// Install the covert-channel delay model (host side of the
    /// `covert_delay` primitive) and enable it.
    pub fn set_delay_model(&mut self, m: Box<dyn DelayModel>) {
        self.delay = Some(m);
        self.covert_enabled = true;
    }

    /// Enable or disable the covert-delay primitive at runtime (§6.6).
    pub fn set_covert_enabled(&mut self, on: bool) {
        self.covert_enabled = on;
    }

    /// Number of garbage collections so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Heap statistics: `(allocations, allocated_bytes, live_objects)`.
    pub fn heap_stats(&self) -> (u64, u64, usize) {
        (
            self.heap.allocations(),
            self.heap.allocated_bytes(),
            self.heap.live_objects(),
        )
    }

    /// Console lines printed so far.
    pub fn console(&self) -> &[String] {
        &self.console
    }

    // ---- thread management ---------------------------------------------------

    pub(crate) fn spawn_thread(&mut self, entry: MethodId) -> Result<usize, VmError> {
        if self.threads.len() >= MAX_THREADS {
            return Err(VmError::Load("too many threads".into()));
        }
        let m = self.program.method(entry);
        if !m.is_static || !m.params.is_empty() {
            return Err(VmError::Load(format!(
                "thread entry {} must be static with no parameters",
                m.name
            )));
        }
        let tid = self.threads.len();
        let base = map::STACKS + tid as u64 * STACK_REGION;
        let locals = vec![Value::I32(0); m.max_locals as usize];
        self.threads.push(VmThread {
            frames: vec![Frame {
                method: entry,
                ip: 0,
                locals,
                stack: Vec::with_capacity(16),
                base_vaddr: base,
            }],
            state: ThreadState::Runnable,
            sp: m.max_locals as u64,
        });
        Ok(tid)
    }

    pub(crate) fn frame(&mut self) -> &mut Frame {
        self.threads[self.cur]
            .frames
            .last_mut()
            .expect("runnable thread has a frame")
    }

    #[inline]
    pub(crate) fn push(&mut self, v: Value) {
        self.frame().stack.push(v);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Value {
        self.frame().stack.pop().expect("verified stack depth")
    }

    /// Advance to the next runnable thread. `Ok(true)` if one was found,
    /// `Ok(false)` if every thread is done.
    fn rotate(&mut self) -> Result<bool, VmError> {
        let n = self.threads.len();
        for k in 1..=n {
            let tid = (self.cur + k) % n;
            if self.threads[tid].state == ThreadState::Runnable {
                self.cur = tid;
                self.budget = self.cfg.quantum;
                return Ok(true);
            }
        }
        if self.threads.iter().all(|t| t.state == ThreadState::Done) {
            return Ok(false);
        }
        Err(VmError::Deadlock)
    }

    // ---- main loop --------------------------------------------------------------

    /// Run until every thread completes (or a VM error occurs).
    pub fn run(&mut self) -> Result<RunOutcome, VmError> {
        let program = Arc::clone(&self.program);
        loop {
            if (self.threads[self.cur].state != ThreadState::Runnable || self.budget == 0)
                && !self.rotate()?
            {
                break;
            }
            ops::fused::step(self, &program)?;
        }
        Ok(RunOutcome {
            exit: ExitKind::Completed,
            icount: self.icount,
            cycles: self.machine.now_cycles(),
            wall_ps: self.machine.now_ps(),
            console: self.console.clone(),
        })
    }

    pub(crate) fn charge(
        &mut self,
        class: OpClass,
        pc_vaddr: u64,
        refs: &[(u64, bool)],
        branch: Option<(bool, u64)>,
    ) {
        crate::ops::charge(&mut self.machine, &self.cost, class, pc_vaddr, refs, branch);
    }

    // ---- exceptions -----------------------------------------------------------

    pub(crate) fn throw_builtin(&mut self, program: &Program, name: &str) -> Result<(), VmError> {
        match program.class_by_name(name) {
            Some(cid) => {
                let nfields = program.class(cid).layout.len();
                let h = self.alloc_retry(|| HeapObj::Obj {
                    class: cid,
                    fields: vec![Value::I32(0); nfields],
                })?;
                self.raise(program, h)
            }
            None => Err(VmError::UncaughtException { class: name.into() }),
        }
    }

    pub(crate) fn raise(&mut self, program: &Program, exc: Handle) -> Result<(), VmError> {
        let runtime = match self.heap.get(exc) {
            HeapObj::Obj { class, .. } => Some(*class),
            _ => None,
        };
        loop {
            let t = &mut self.threads[self.cur];
            let Some(f) = t.frames.last_mut() else {
                t.state = ThreadState::Done;
                let name = runtime
                    .map(|c| program.class(c).name.clone())
                    .unwrap_or_else(|| "<non-object>".into());
                if self.cur == 0 {
                    return Err(VmError::UncaughtException { class: name });
                }
                // A non-main thread dies quietly, like a JVM thread.
                return Ok(());
            };
            let m = program.method(f.method);
            // `ip` is pre-advanced at dispatch, so the faulting (or calling)
            // instruction is at `ip - 1` in every frame.
            let fault_ip = f.ip.saturating_sub(1);
            let handler = m.handlers.iter().find(|h| {
                h.start <= fault_ip
                    && fault_ip < h.end
                    && match (h.class, runtime) {
                        (None, _) => true,
                        (Some(want), Some(have)) => program.is_subclass(have, want),
                        (Some(_), None) => false,
                    }
            });
            if let Some(h) = handler {
                f.ip = h.target;
                f.stack.clear();
                f.stack.push(Value::Ref(exc));
                return Ok(());
            }
            let popped = t.frames.pop().expect("non-empty");
            t.sp -= popped.locals.len() as u64;
        }
    }

    // ---- allocation --------------------------------------------------------------

    pub(crate) fn alloc_retry(&mut self, make: impl Fn() -> HeapObj) -> Result<Handle, VmError> {
        if let Some((h, _)) = self.heap.alloc(make()) {
            return Ok(h);
        }
        self.gc();
        self.heap
            .alloc(make())
            .map(|(h, _)| h)
            .ok_or(VmError::OutOfMemory)
    }

    fn gc(&mut self) {
        self.gc_runs += 1;
        let mut roots: Vec<Handle> = Vec::new();
        roots.extend(self.string_refs.iter().copied());
        for v in &self.statics {
            if let Value::Ref(r) = v {
                roots.push(*r);
            }
        }
        for t in &self.threads {
            for f in &t.frames {
                for v in f.locals.iter().chain(f.stack.iter()) {
                    if let Value::Ref(r) = v {
                        roots.push(*r);
                    }
                }
            }
        }
        roots.extend(self.monitors.keys().copied());
        let stats = self.heap.collect(roots.into_iter());
        // Deterministic cost: mark-per-live + sweep-per-object + fixed.
        self.machine
            .idle(stats.live * 40 + (stats.live + stats.freed) * 8 + 500);
    }

    pub(crate) fn push_frame(
        &mut self,
        program: &Program,
        mid: MethodId,
        args: Vec<Value>,
    ) -> Result<(), VmError> {
        let t = &mut self.threads[self.cur];
        if t.frames.len() >= self.cfg.max_call_depth {
            return Err(VmError::StackOverflow);
        }
        let m = program.method(mid);
        let max_locals = m.max_locals as usize;
        if (t.sp + max_locals as u64) * 8 > STACK_REGION {
            return Err(VmError::StackOverflow);
        }
        let base = map::STACKS + self.cur as u64 * STACK_REGION + t.sp * 8;
        let mut locals = args;
        locals.resize(max_locals, Value::I32(0));
        t.frames.push(Frame {
            method: mid,
            ip: 0,
            locals,
            stack: Vec::with_capacity(8),
            base_vaddr: base,
        });
        t.sp += max_locals as u64;
        Ok(())
    }
}
