//! The interpreter: executes one function of a loaded binary in a fixed
//! execution environment, collecting the Table II dynamic features.
//!
//! Execution outcomes mirror §III-B of the paper: "the candidate f may
//! terminate, the candidate f may trigger a system exception, or the
//! candidate f may go into an infinite loop. If the candidate f triggers a
//! system exception, we will remove the candidate function from a candidate
//! set." — [`Outcome::Returned`], [`Outcome::Fault`] and
//! [`Outcome::Timeout`] respectively (timeouts are enforced with an
//! instruction budget).

use crate::trace::Trace;
use crate::value::{Addr, Region, Value};
use fwbin::isa::{BinOp, Cond, Inst};
use serde::{Deserialize, Serialize};

/// Which engine executes runs.
///
/// Both engines produce bitwise-identical [`crate::loader::RunResult`]s
/// (outcome, all 21 features, coverage) and edge sets; the fast engine is
/// the default, the interpreter stays available for differential testing
/// (see DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Engine {
    /// Pre-lowered fast engine: indexed dispatch over unpacked operands,
    /// dense PC-count tracing, dirty-tracked snapshot resets
    /// ([`crate::engine::FastVm`]).
    #[default]
    Fast,
    /// The reference decode-per-step interpreter ([`Vm`]).
    Interp,
}

/// Interpreter limits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VmConfig {
    /// Instruction budget before declaring a timeout (infinite-loop guard).
    pub max_instructions: u64,
    /// Maximum call-stack depth.
    pub max_depth: usize,
    /// Heap byte budget for `malloc`.
    pub heap_limit: usize,
    /// Which execution engine runs functions. Not part of cache keys or
    /// environment fingerprints: both engines produce identical profiles.
    #[serde(default)]
    pub engine: Engine,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            max_instructions: 200_000,
            max_depth: 64,
            heap_limit: 1 << 20,
            engine: Engine::default(),
        }
    }
}

/// A runtime fault ("system exception" in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Memory access outside the valid bytes of a region.
    OutOfBounds(Region),
    /// Dereference of a non-pointer value.
    BadPointer,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Store into read-only memory (the string pool).
    WriteToReadOnly,
    /// `Pop` on an empty machine stack.
    PopEmpty,
    /// Call depth exceeded.
    StackOverflow,
    /// Call through an invalid symbol.
    BadCall,
    /// `abort()` or a `Halt` trap.
    Aborted,
    /// Heap access to a freed allocation, or double free.
    UseAfterFree,
    /// Frame-slot index out of range.
    BadSlot,
    /// Jump outside the function body.
    BadJump,
    /// `LoadStr` with a string id outside the binary's string table.
    BadString,
    /// `FBin` with an operator that has no float semantics (an
    /// integer-only operator reaching the float unit).
    BadFloatOp,
}

/// Result of running a function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Normal termination with the returned value.
    Returned(Value),
    /// A system exception.
    Fault(Fault),
    /// Instruction budget exhausted.
    Timeout,
}

impl Outcome {
    /// Whether the run terminated normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Returned(_))
    }
}

/// Pre-decoded executable binary (see `crate::loader`).
pub struct ExecImage<'a> {
    /// Decoded code per function.
    pub code: &'a [Vec<Inst>],
    /// Frame slot counts per function.
    pub frame_slots: &'a [u32],
    /// Import names, indexed by `Sym::import`.
    pub imports: &'a [String],
    /// String pool blob (the `Lib` region) with per-string offsets.
    pub strings_blob: &'a [u8],
    /// Offset of each string id within the blob.
    pub string_offsets: &'a [i64],
    /// Initial global values.
    pub globals_init: &'a [i64],
}

struct Heap {
    data: Vec<u8>,
    /// (start, len, live) per allocation.
    allocs: Vec<(usize, usize, bool)>,
    limit: usize,
}

impl Heap {
    fn alloc(&mut self, n: usize) -> Option<i64> {
        if self.data.len() + n > self.limit {
            return None;
        }
        let start = self.data.len();
        self.data.resize(start + n, 0);
        self.allocs.push((start, n, true));
        Some(start as i64)
    }

    fn free(&mut self, off: i64) -> Result<(), Fault> {
        for a in &mut self.allocs {
            if a.0 as i64 == off {
                if !a.2 {
                    return Err(Fault::UseAfterFree);
                }
                a.2 = false;
                return Ok(());
            }
        }
        Err(Fault::BadPointer)
    }

    fn check(&self, off: i64, len: usize) -> Result<usize, Fault> {
        if off < 0 {
            return Err(Fault::OutOfBounds(Region::Heap));
        }
        let off = off as usize;
        for &(start, alen, live) in &self.allocs {
            if off >= start && off + len <= start + alen {
                return if live { Ok(off) } else { Err(Fault::UseAfterFree) };
            }
        }
        Err(Fault::OutOfBounds(Region::Heap))
    }
}

struct Frame {
    func: u32,
    pc: u32,
    /// Previous executed pc within this frame (`u32::MAX` = none yet);
    /// source end of the next recorded control-flow edge.
    prev_pc: u32,
    regs: [Value; 64],
    slots: Vec<Value>,
    stack: Vec<Value>,
    args: Vec<Value>,
    pending_args: Vec<Value>,
    ret_val: Value,
    flags: Option<(Value, Value)>,
}

impl Frame {
    fn new(func: u32, args: Vec<Value>, slots: u32) -> Frame {
        Frame {
            func,
            pc: 0,
            prev_pc: u32::MAX,
            regs: [Value::Int(0); 64],
            slots: vec![Value::Int(0); slots as usize],
            stack: Vec::new(),
            args,
            pending_args: Vec::new(),
            ret_val: Value::Int(0),
            flags: None,
        }
    }
}

/// The virtual machine for one function execution.
pub struct Vm<'a> {
    image: &'a ExecImage<'a>,
    cfg: &'a VmConfig,
    /// Mutable copy of the anonymous input buffer.
    pub input: Vec<u8>,
    globals: Vec<Value>,
    heap: Heap,
    trace: Trace,
    executed: u64,
    last_ret: Value,
}

pub(crate) fn eval_cond(cond: Cond, a: Value, b: Value) -> bool {
    let ord = if matches!(a, Value::Float(_)) || matches!(b, Value::Float(_)) {
        a.as_float().partial_cmp(&b.as_float())
    } else {
        Some(a.as_int().cmp(&b.as_int()))
    };
    match ord {
        None => matches!(cond, Cond::Ne), // NaN: only != holds
        Some(o) => match cond {
            Cond::Eq => o.is_eq(),
            Cond::Ne => o.is_ne(),
            Cond::Lt => o.is_lt(),
            Cond::Le => o.is_le(),
            Cond::Gt => o.is_gt(),
            Cond::Ge => o.is_ge(),
        },
    }
}

pub(crate) fn int_binop(op: BinOp, a: Value, b: Value) -> Result<Value, Fault> {
    // Pointer arithmetic: ptr ± int stays a pointer; ptr - ptr is an int.
    if let (Value::Ptr(pa), Value::Ptr(pb)) = (a, b) {
        if op == BinOp::Sub {
            return Ok(Value::Int(pa.offset.wrapping_sub(pb.offset)));
        }
    }
    if let Value::Ptr(p) = a {
        match op {
            BinOp::Add => return Ok(Value::Ptr(p.offset_by(b.as_int()))),
            BinOp::Sub => return Ok(Value::Ptr(p.offset_by(-b.as_int()))),
            _ => {}
        }
    }
    if let Value::Ptr(p) = b {
        if op == BinOp::Add {
            return Ok(Value::Ptr(p.offset_by(a.as_int())));
        }
    }
    let (x, y) = (a.as_int(), b.as_int());
    match fwbin::astopt::eval_int_binop(op, x, y) {
        Some(v) => Ok(Value::Int(v)),
        None => Err(Fault::DivByZero),
    }
}

/// Process-global `vm.executions` counter handle, resolved once.
///
/// [`Vm::run`] is the single chokepoint for every execution path — loader
/// `run_any`/`run_export`, the fuzzer, and [`crate::envpool::EnvPool`] —
/// so a warm cache-served audit can prove "zero VM executions" by reading
/// `vm.executions` from the global scope registry.
pub(crate) fn executions_counter() -> &'static scope::Counter {
    static COUNTER: std::sync::OnceLock<scope::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| scope::global().counter("vm.executions"))
}

/// Process-global `vm.lowerings` counter handle, resolved once: one per
/// binary lowered for the fast engine. A binary is lowered on its first
/// fast run, not when it loads, so a warm cache-served audit, which runs
/// nothing, reads zero here as it does under `vm.executions`.
pub(crate) fn lowerings_counter() -> &'static scope::Counter {
    static COUNTER: std::sync::OnceLock<scope::Counter> = std::sync::OnceLock::new();
    COUNTER.get_or_init(|| scope::global().counter("vm.lowerings"))
}

/// Materialize a global table from an image's initializers plus per-env
/// overrides. Shared by [`Vm::new`] and the environment pool's snapshots.
pub(crate) fn resolve_globals(image: &ExecImage<'_>, overrides: &[(u32, i64)]) -> Vec<Value> {
    let mut globals: Vec<Value> = image.globals_init.iter().map(|&g| Value::Int(g)).collect();
    for &(gid, v) in overrides {
        if let Some(slot) = globals.get_mut(gid as usize) {
            *slot = Value::Int(v);
        }
    }
    globals
}

impl<'a> Vm<'a> {
    /// Create a VM over an execution image with the given input buffer and
    /// per-run global overrides.
    pub fn new(
        image: &'a ExecImage<'a>,
        cfg: &'a VmConfig,
        input: Vec<u8>,
        global_overrides: &[(u32, i64)],
    ) -> Vm<'a> {
        Vm::with_globals(image, cfg, input, resolve_globals(image, global_overrides))
    }

    /// Like [`Vm::new`], but with an already-materialized global table.
    ///
    /// [`crate::envpool::EnvPool`] resolves `globals_init` + overrides once
    /// per environment and clones the snapshot here for every run, instead
    /// of re-walking the override list per execution.
    pub fn with_globals(
        image: &'a ExecImage<'a>,
        cfg: &'a VmConfig,
        input: Vec<u8>,
        globals: Vec<Value>,
    ) -> Vm<'a> {
        Vm {
            image,
            cfg,
            input,
            globals,
            heap: Heap { data: Vec::new(), allocs: Vec::new(), limit: cfg.heap_limit },
            trace: Trace::new(),
            executed: 0,
            last_ret: Value::Int(0),
        }
    }

    /// The collected trace (valid after [`Vm::run`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    fn load_byte(&mut self, base: Value, idx: i64) -> Result<u8, Fault> {
        let p = base.as_ptr().ok_or(Fault::BadPointer)?;
        let addr = p.offset_by(idx);
        self.trace.record_access(addr.region);
        self.read_region(addr)
    }

    fn read_region(&self, addr: Addr) -> Result<u8, Fault> {
        match addr.region {
            Region::Anon => {
                if addr.offset < 0 || addr.offset as usize >= self.input.len() {
                    Err(Fault::OutOfBounds(Region::Anon))
                } else {
                    Ok(self.input[addr.offset as usize])
                }
            }
            Region::Heap => {
                let off = self.heap.check(addr.offset, 1)?;
                Ok(self.heap.data[off])
            }
            Region::Lib => {
                if addr.offset < 0 || addr.offset as usize >= self.image.strings_blob.len() {
                    Err(Fault::OutOfBounds(Region::Lib))
                } else {
                    Ok(self.image.strings_blob[addr.offset as usize])
                }
            }
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn store_byte(&mut self, base: Value, idx: i64, byte: u8) -> Result<(), Fault> {
        let p = base.as_ptr().ok_or(Fault::BadPointer)?;
        let addr = p.offset_by(idx);
        self.trace.record_access(addr.region);
        match addr.region {
            Region::Anon => {
                if addr.offset < 0 || addr.offset as usize >= self.input.len() {
                    Err(Fault::OutOfBounds(Region::Anon))
                } else {
                    self.input[addr.offset as usize] = byte;
                    Ok(())
                }
            }
            Region::Heap => {
                let off = self.heap.check(addr.offset, 1)?;
                self.heap.data[off] = byte;
                Ok(())
            }
            Region::Lib => Err(Fault::WriteToReadOnly),
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    /// Bounds-check `len` bytes from `addr` and return (region, start) for
    /// bulk library-routine operations.
    fn check_range(&self, base: Value, len: usize) -> Result<Addr, Fault> {
        let p = base.as_ptr().ok_or(Fault::BadPointer)?;
        if len == 0 {
            return Ok(p);
        }
        match p.region {
            Region::Anon => {
                if p.offset < 0 || p.offset as usize + len > self.input.len() {
                    Err(Fault::OutOfBounds(Region::Anon))
                } else {
                    Ok(p)
                }
            }
            Region::Heap => {
                self.heap.check(p.offset, len)?;
                Ok(p)
            }
            Region::Lib => {
                if p.offset < 0 || p.offset as usize + len > self.image.strings_blob.len() {
                    Err(Fault::OutOfBounds(Region::Lib))
                } else {
                    Ok(p)
                }
            }
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn read_bulk(&mut self, addr: Addr, len: usize) -> Result<Vec<u8>, Fault> {
        self.trace.record_accesses(addr.region, len as u64);
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            out.push(self.read_region(addr.offset_by(i as i64))?);
        }
        Ok(out)
    }

    fn write_bulk(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Fault> {
        // A zero-length write touches nothing: `check_range` skips bounds
        // checks for len 0, so reaching the per-region arms with an
        // arbitrary address could fault (or panic on a wild Anon offset)
        // for a write that C semantics say is a no-op.
        if bytes.is_empty() {
            return Ok(());
        }
        self.trace.record_accesses(addr.region, bytes.len() as u64);
        match addr.region {
            Region::Anon => {
                let s = addr.offset as usize;
                self.input[s..s + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            Region::Heap => {
                let off = self.heap.check(addr.offset, bytes.len())?;
                self.heap.data[off..off + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            Region::Lib => Err(Fault::WriteToReadOnly),
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn library_call(&mut self, name: &str, args: &[Value]) -> Result<Value, Fault> {
        self.trace.library_calls += 1;
        let arg = |i: usize| args.get(i).copied().unwrap_or(Value::Int(0));
        match name {
            "memmove" | "memcpy" => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let src = self.check_range(arg(1), n)?;
                let dst = self.check_range(arg(0), n)?;
                let data = self.read_bulk(src, n)?;
                self.write_bulk(dst, &data)?;
                Ok(arg(0))
            }
            "memset" => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let dst = self.check_range(arg(0), n)?;
                let byte = arg(1).as_int() as u8;
                self.write_bulk(dst, &vec![byte; n])?;
                Ok(arg(0))
            }
            "memcmp" => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let a = self.check_range(arg(0), n)?;
                let b = self.check_range(arg(1), n)?;
                let da = self.read_bulk(a, n)?;
                let db = self.read_bulk(b, n)?;
                Ok(Value::Int(match da.cmp(&db) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            "strlen" => {
                let p = arg(0).as_ptr().ok_or(Fault::BadPointer)?;
                let mut n = 0i64;
                loop {
                    self.trace.record_access(p.region);
                    let b = self.read_region(p.offset_by(n))?;
                    if b == 0 {
                        return Ok(Value::Int(n));
                    }
                    n += 1;
                }
            }
            "malloc" => {
                let n = arg(0).as_int().clamp(0, 1 << 20) as usize;
                match self.heap.alloc(n) {
                    Some(off) => Ok(Value::Ptr(Addr { region: Region::Heap, offset: off })),
                    None => Ok(Value::Int(0)), // NULL on exhaustion
                }
            }
            "free" => {
                match arg(0) {
                    Value::Ptr(p) if p.region == Region::Heap => {
                        self.heap.free(p.offset)?;
                        Ok(Value::Int(0))
                    }
                    Value::Int(0) => Ok(Value::Int(0)), // free(NULL) is a no-op
                    _ => Err(Fault::BadPointer),
                }
            }
            "abs" => Ok(Value::Int(arg(0).as_int().wrapping_abs())),
            "min" => Ok(Value::Int(arg(0).as_int().min(arg(1).as_int()))),
            "max" => Ok(Value::Int(arg(0).as_int().max(arg(1).as_int()))),
            "checksum" => {
                let n = arg(1).as_int().clamp(0, 1 << 20) as usize;
                let p = self.check_range(arg(0), n)?;
                let data = self.read_bulk(p, n)?;
                let mut h = 0xcbf29ce484222325u64;
                for b in data {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
                Ok(Value::Int(h as i64))
            }
            "log_event" => {
                // Reads the message string (library-region traffic).
                if let Some(p) = arg(0).as_ptr() {
                    let mut n = 0i64;
                    while let Ok(b) = self.read_region(p.offset_by(n)) {
                        self.trace.record_access(p.region);
                        if b == 0 {
                            break;
                        }
                        n += 1;
                    }
                }
                Ok(Value::Int(0))
            }
            "abort" => Err(Fault::Aborted),
            _ => Err(Fault::BadCall),
        }
    }

    /// Run function `func_idx` with the given argument list to completion.
    pub fn run(&mut self, func_idx: usize, args: Vec<Value>) -> Outcome {
        executions_counter().inc();
        if func_idx >= self.image.code.len() {
            return Outcome::Fault(Fault::BadCall);
        }
        let mut frames = vec![Frame::new(
            func_idx as u32,
            args,
            self.image.frame_slots[func_idx],
        )];
        loop {
            let depth = frames.len() as u64 + 1; // +1 models the loader frame
            let frame = frames.last_mut().expect("frame stack never empty here");
            let code = &self.image.code[frame.func as usize];
            if frame.pc as usize >= code.len() {
                return Outcome::Fault(Fault::BadJump);
            }
            if self.executed >= self.cfg.max_instructions {
                return Outcome::Timeout;
            }
            self.executed += 1;
            let inst = code[frame.pc as usize];
            let is_load = matches!(
                inst,
                Inst::LoadB { .. } | Inst::LoadSlot { .. } | Inst::LoadGlobal { .. } | Inst::Pop { .. }
            );
            let is_store = matches!(
                inst,
                Inst::StoreB { .. }
                    | Inst::StoreSlot { .. }
                    | Inst::StoreGlobal { .. }
                    | Inst::Push { .. }
            );
            self.trace.record_inst(
                frame.func,
                frame.pc,
                depth,
                inst.is_arith(),
                matches!(inst, Inst::Jmp { .. } | Inst::JCc { .. } | Inst::CBr { .. } | Inst::JmpInd { .. }),
                matches!(inst, Inst::Call { .. }),
                is_load,
                is_store,
            );
            if frame.prev_pc != u32::MAX {
                self.trace.record_edge(frame.func, frame.prev_pc, frame.pc);
            }
            frame.prev_pc = frame.pc;
            let mut next_pc = frame.pc + 1;
            macro_rules! fault {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(f) => return Outcome::Fault(f),
                    }
                };
            }
            match inst {
                Inst::Label(_) => return Outcome::Fault(Fault::BadJump),
                Inst::MovImm { rd, imm } => frame.regs[rd.0 as usize] = Value::Int(imm),
                Inst::FMovImm { rd, imm } => frame.regs[rd.0 as usize] = Value::Float(imm),
                Inst::Mov { rd, rs } => frame.regs[rd.0 as usize] = frame.regs[rs.0 as usize],
                Inst::LoadStr { rd, sid } => {
                    // An out-of-range string id is container corruption: it
                    // must fault, not silently alias string 0.
                    let off = *fault!(self
                        .image
                        .string_offsets
                        .get(sid as usize)
                        .ok_or(Fault::BadString));
                    frame.regs[rd.0 as usize] = Value::Ptr(Addr { region: Region::Lib, offset: off });
                }
                Inst::LoadGlobal { rd, gid } => {
                    self.trace.record_access(Region::Other);
                    let v = *fault!(self
                        .globals
                        .get(gid as usize)
                        .ok_or(Fault::OutOfBounds(Region::Other)));
                    frame.regs[rd.0 as usize] = v;
                }
                Inst::StoreGlobal { gid, rs } => {
                    self.trace.record_access(Region::Other);
                    let v = frame.regs[rs.0 as usize];
                    let slot = fault!(self
                        .globals
                        .get_mut(gid as usize)
                        .ok_or(Fault::OutOfBounds(Region::Other)));
                    *slot = v;
                }
                Inst::Bin { op, rd, rs1, rs2 } => {
                    let v = fault!(int_binop(op, frame.regs[rs1.0 as usize], frame.regs[rs2.0 as usize]));
                    frame.regs[rd.0 as usize] = v;
                }
                Inst::BinImm { op, rd, rs, imm } => {
                    let v = fault!(int_binop(op, frame.regs[rs.0 as usize], Value::Int(imm)));
                    frame.regs[rd.0 as usize] = v;
                }
                Inst::FBin { op, rd, rs1, rs2 } => {
                    let a = frame.regs[rs1.0 as usize].as_float();
                    let b = frame.regs[rs2.0 as usize].as_float();
                    // `eval_float_binop` is `None` only for integer-only
                    // operators; that is a malformed instruction stream and
                    // must fault instead of silently producing 0.0.
                    // (Float div-by-zero keeps IEEE semantics: ±inf/NaN.)
                    let v = fault!(fwbin::astopt::eval_float_binop(op, a, b)
                        .ok_or(Fault::BadFloatOp));
                    frame.regs[rd.0 as usize] = Value::Float(v);
                }
                Inst::FMulAdd { rd, rs1, rs2, rs3 } => {
                    let v = frame.regs[rs1.0 as usize].as_float()
                        * frame.regs[rs2.0 as usize].as_float()
                        + frame.regs[rs3.0 as usize].as_float();
                    frame.regs[rd.0 as usize] = Value::Float(v);
                }
                Inst::Neg { rd, rs } => {
                    frame.regs[rd.0 as usize] =
                        Value::Int(frame.regs[rs.0 as usize].as_int().wrapping_neg())
                }
                Inst::Not { rd, rs } => {
                    frame.regs[rd.0 as usize] =
                        Value::Int(!frame.regs[rs.0 as usize].is_truthy() as i64)
                }
                Inst::Cmp { rs1, rs2 } => {
                    frame.flags = Some((frame.regs[rs1.0 as usize], frame.regs[rs2.0 as usize]))
                }
                Inst::SetCc { cond, rd } => {
                    let (a, b) = frame.flags.unwrap_or((Value::Int(0), Value::Int(0)));
                    frame.regs[rd.0 as usize] = Value::Int(eval_cond(cond, a, b) as i64);
                }
                Inst::CmpSet { cond, rd, rs1, rs2 } => {
                    let r = eval_cond(cond, frame.regs[rs1.0 as usize], frame.regs[rs2.0 as usize]);
                    frame.regs[rd.0 as usize] = Value::Int(r as i64);
                }
                Inst::LoadB { rd, base, idx } => {
                    let b = frame.regs[base.0 as usize];
                    let i = frame.regs[idx.0 as usize].as_int();
                    let byte = fault!(self.load_byte(b, i));
                    let frame = frames.last_mut().unwrap();
                    frame.regs[rd.0 as usize] = Value::Int(byte as i64);
                    frame.pc = next_pc;
                    continue;
                }
                Inst::StoreB { rs, base, idx } => {
                    let v = frame.regs[rs.0 as usize].as_int() as u8;
                    let b = frame.regs[base.0 as usize];
                    let i = frame.regs[idx.0 as usize].as_int();
                    fault!(self.store_byte(b, i, v));
                    let frame = frames.last_mut().unwrap();
                    frame.pc = next_pc;
                    continue;
                }
                Inst::LoadSlot { rd, slot } => {
                    self.trace.record_access(Region::Stack);
                    let v = *fault!(frame.slots.get(slot as usize).ok_or(Fault::BadSlot));
                    frame.regs[rd.0 as usize] = v;
                }
                Inst::StoreSlot { rs, slot } => {
                    self.trace.record_access(Region::Stack);
                    let v = frame.regs[rs.0 as usize];
                    let s = fault!(frame.slots.get_mut(slot as usize).ok_or(Fault::BadSlot));
                    *s = v;
                }
                Inst::Jmp { target } => next_pc = target,
                Inst::JCc { cond, target } => {
                    let (a, b) = frame.flags.unwrap_or((Value::Int(0), Value::Int(0)));
                    if eval_cond(cond, a, b) {
                        next_pc = target;
                    }
                }
                Inst::CBr { cond, rs1, rs2, target } => {
                    if eval_cond(cond, frame.regs[rs1.0 as usize], frame.regs[rs2.0 as usize]) {
                        next_pc = target;
                    }
                }
                Inst::JmpInd { rs } => {
                    let t = frame.regs[rs.0 as usize].as_int();
                    if t < 0 || t as usize >= code.len() {
                        return Outcome::Fault(Fault::BadJump);
                    }
                    next_pc = t as u32;
                }
                Inst::SetArg { idx, rs } => {
                    let v = frame.regs[rs.0 as usize];
                    let i = idx as usize;
                    if frame.pending_args.len() <= i {
                        frame.pending_args.resize(i + 1, Value::Int(0));
                    }
                    frame.pending_args[i] = v;
                }
                Inst::LoadArg { rd, idx } => {
                    frame.regs[rd.0 as usize] =
                        frame.args.get(idx as usize).copied().unwrap_or(Value::Int(0));
                }
                Inst::Call { sym } => {
                    let args = std::mem::take(&mut frame.pending_args);
                    if sym.is_import() {
                        let name = fault!(self
                            .image
                            .imports
                            .get(sym.index() as usize)
                            .cloned()
                            .ok_or(Fault::BadCall));
                        let ret = fault!(self.library_call(&name, &args));
                        self.last_ret = ret;
                        let frame = frames.last_mut().unwrap();
                        frame.pc = next_pc;
                        continue;
                    }
                    let callee = sym.index() as usize;
                    if callee >= self.image.code.len() {
                        return Outcome::Fault(Fault::BadCall);
                    }
                    if frames.len() >= self.cfg.max_depth {
                        return Outcome::Fault(Fault::StackOverflow);
                    }
                    self.trace.binary_calls += 1;
                    let frame = frames.last_mut().unwrap();
                    frame.pc = next_pc; // return address
                    frames.push(Frame::new(
                        callee as u32,
                        args,
                        self.image.frame_slots[callee],
                    ));
                    continue;
                }
                Inst::GetRet { rd } => frame.regs[rd.0 as usize] = self.last_ret,
                Inst::SetRet { rs } => frame.ret_val = frame.regs[rs.0 as usize],
                Inst::Ret => {
                    let done = frames.pop().expect("frame stack never empty here");
                    self.last_ret = done.ret_val;
                    if frames.is_empty() {
                        return Outcome::Returned(self.last_ret);
                    }
                    continue; // caller's pc was advanced at call time
                }
                Inst::Push { rs } => {
                    self.trace.record_access(Region::Stack);
                    let v = frame.regs[rs.0 as usize];
                    frame.stack.push(v);
                }
                Inst::Pop { rd } => {
                    self.trace.record_access(Region::Stack);
                    let v = fault!(frame.stack.pop().ok_or(Fault::PopEmpty));
                    frame.regs[rd.0 as usize] = v;
                }
                Inst::Syscall { num: _ } => {
                    self.trace.syscalls += 1;
                    frame.pending_args.clear();
                }
                Inst::Halt => return Outcome::Fault(Fault::Aborted),
                Inst::Nop => {}
            }
            let frame = frames.last_mut().unwrap();
            frame.pc = next_pc;
        }
    }
}
