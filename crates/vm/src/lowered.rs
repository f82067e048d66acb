//! Pre-lowered executable form consumed by the fast engine.
//!
//! A [`crate::loader::LoadedBinary`] lowers every decoded function once,
//! on the binary's first fast run: operands are unpacked out of [`Inst`]
//! into flat [`LowOp`] records, string-id lookups and callee frame sizes
//! are resolved then, import symbols become [`LibFn`] tags (no per-call string
//! matching), structurally invalid instructions (stray labels,
//! out-of-range string ids, calls to symbols outside the tables) become
//! explicit [`LowOp::Trap`]s, and the per-instruction trace
//! classification — the five `matches!` of the interpreter loop — is
//! precomputed into a parallel byte array. The hot loop then does zero
//! decoding and zero classification work per executed instruction.

use crate::exec::Fault;
use fwbin::isa::{BinOp, Cond, Inst};

/// Trace-classification bit: arithmetic instruction (F9/F14).
pub(crate) const CLASS_ARITH: u8 = 1 << 0;
/// Trace-classification bit: branch instruction (F10/F13).
pub(crate) const CLASS_BRANCH: u8 = 1 << 1;
/// Trace-classification bit: call instruction (F8).
pub(crate) const CLASS_CALL: u8 = 1 << 2;
/// Trace-classification bit: load instruction (F11).
pub(crate) const CLASS_LOAD: u8 = 1 << 3;
/// Trace-classification bit: store instruction (F12).
pub(crate) const CLASS_STORE: u8 = 1 << 4;

/// Classification byte of one instruction — must agree exactly with the
/// `matches!` chains in the interpreter's run loop.
pub(crate) fn classify(inst: &Inst) -> u8 {
    let mut c = 0;
    if inst.is_arith() {
        c |= CLASS_ARITH;
    }
    if matches!(
        inst,
        Inst::Jmp { .. } | Inst::JCc { .. } | Inst::CBr { .. } | Inst::JmpInd { .. }
    ) {
        c |= CLASS_BRANCH;
    }
    if matches!(inst, Inst::Call { .. }) {
        c |= CLASS_CALL;
    }
    if matches!(
        inst,
        Inst::LoadB { .. } | Inst::LoadSlot { .. } | Inst::LoadGlobal { .. } | Inst::Pop { .. }
    ) {
        c |= CLASS_LOAD;
    }
    if matches!(
        inst,
        Inst::StoreB { .. } | Inst::StoreSlot { .. } | Inst::StoreGlobal { .. } | Inst::Push { .. }
    ) {
        c |= CLASS_STORE;
    }
    c
}

/// Library routines, resolved from import names when a binary is lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LibFn {
    /// `memmove`/`memcpy` (one shared implementation).
    Memmove,
    /// `memset`.
    Memset,
    /// `memcmp`.
    Memcmp,
    /// `strlen`.
    Strlen,
    /// `malloc`.
    Malloc,
    /// `free`.
    Free,
    /// `abs`.
    Abs,
    /// `min`.
    Min,
    /// `max`.
    Max,
    /// `checksum` (FNV-1a).
    Checksum,
    /// `log_event`.
    LogEvent,
    /// `abort`.
    Abort,
    /// Import name the VM does not provide — faults `BadCall` at call
    /// time, *after* counting the library call, like the interpreter.
    Unknown,
}

/// Resolve an import name to its routine tag.
pub(crate) fn libfn_of(name: &str) -> LibFn {
    match name {
        "memmove" | "memcpy" => LibFn::Memmove,
        "memset" => LibFn::Memset,
        "memcmp" => LibFn::Memcmp,
        "strlen" => LibFn::Strlen,
        "malloc" => LibFn::Malloc,
        "free" => LibFn::Free,
        "abs" => LibFn::Abs,
        "min" => LibFn::Min,
        "max" => LibFn::Max,
        "checksum" => LibFn::Checksum,
        "log_event" => LibFn::LogEvent,
        "abort" => LibFn::Abort,
        _ => LibFn::Unknown,
    }
}

/// One pre-lowered instruction: operands unpacked, string offsets and
/// callee frame sizes resolved, structural faults made explicit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LowOp {
    /// `rd = imm`.
    MovImm { rd: u16, imm: i64 },
    /// `rd = imm` (float).
    FMovImm { rd: u16, imm: f64 },
    /// `rd = rs`.
    Mov { rd: u16, rs: u16 },
    /// `LoadStr` with the blob offset already resolved.
    LoadStr { rd: u16, off: i64 },
    /// `rd = globals[gid]`.
    LoadGlobal { rd: u16, gid: u32 },
    /// `globals[gid] = rs`.
    StoreGlobal { gid: u32, rs: u16 },
    /// Integer binary op.
    Bin { op: BinOp, rd: u16, rs1: u16, rs2: u16 },
    /// Integer binary op with immediate.
    BinImm { op: BinOp, rd: u16, rs: u16, imm: i64 },
    /// Float binary op.
    FBin { op: BinOp, rd: u16, rs1: u16, rs2: u16 },
    /// `rd = rs1 * rs2 + rs3` (float).
    FMulAdd { rd: u16, rs1: u16, rs2: u16, rs3: u16 },
    /// Integer negate.
    Neg { rd: u16, rs: u16 },
    /// Logical not.
    Not { rd: u16, rs: u16 },
    /// Set flags from a register pair.
    Cmp { rs1: u16, rs2: u16 },
    /// `rd = cond(flags)`.
    SetCc { cond: Cond, rd: u16 },
    /// Fused compare + set.
    CmpSet { cond: Cond, rd: u16, rs1: u16, rs2: u16 },
    /// `rd = mem[base + idx]`.
    LoadB { rd: u16, base: u16, idx: u16 },
    /// `mem[base + idx] = rs`.
    StoreB { rs: u16, base: u16, idx: u16 },
    /// `rd = slots[slot]`.
    LoadSlot { rd: u16, slot: u32 },
    /// `slots[slot] = rs`.
    StoreSlot { rs: u16, slot: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Jump on flags.
    JCc { cond: Cond, target: u32 },
    /// Fused compare + branch.
    CBr { cond: Cond, rs1: u16, rs2: u16, target: u32 },
    /// Indirect jump through a register.
    JmpInd { rs: u16 },
    /// Stage outgoing argument `idx`.
    SetArg { idx: u8, rs: u16 },
    /// `rd = args[idx]` (zero when absent).
    LoadArg { rd: u16, idx: u8 },
    /// Call to a function in this binary, frame size pre-resolved.
    CallLocal { callee: u32, slots: u32 },
    /// Call to an import, routine pre-resolved.
    CallImport { lib: LibFn },
    /// `rd = last call's return value`.
    GetRet { rd: u16 },
    /// Stage this frame's return value.
    SetRet { rs: u16 },
    /// Return to the caller.
    Ret,
    /// Push onto the machine stack.
    Push { rs: u16 },
    /// Pop from the machine stack.
    Pop { rd: u16 },
    /// Syscall (counted, arguments consumed).
    Syscall,
    /// Abort trap.
    Halt,
    /// No-op.
    Nop,
    /// Structurally invalid instruction: faults when reached (stray
    /// `Label`, out-of-range string id, call outside the symbol tables).
    Trap { fault: Fault },
}

/// One function in lowered form; pcs are identical to the decoded form.
pub(crate) struct LoweredFunc {
    /// Lowered instructions.
    pub(crate) ops: Box<[LowOp]>,
    /// Per-pc classification bytes (`CLASS_*`).
    pub(crate) class: Box<[u8]>,
    /// Frame slot count.
    pub(crate) frame_slots: u32,
}

/// All functions of a binary in lowered form.
pub(crate) struct LoweredBinary {
    /// Per-function lowered code, same indices as the function table.
    pub(crate) funcs: Vec<LoweredFunc>,
}

fn lower_inst(
    inst: &Inst,
    func_count: usize,
    frame_slots: &[u32],
    imports: &[String],
    string_offsets: &[i64],
) -> LowOp {
    match *inst {
        // A label surviving to execution is a compiler bug; the
        // interpreter treats it as a jump out of the body.
        Inst::Label(_) => LowOp::Trap { fault: Fault::BadJump },
        Inst::MovImm { rd, imm } => LowOp::MovImm { rd: rd.0, imm },
        Inst::FMovImm { rd, imm } => LowOp::FMovImm { rd: rd.0, imm },
        Inst::Mov { rd, rs } => LowOp::Mov { rd: rd.0, rs: rs.0 },
        Inst::LoadStr { rd, sid } => match string_offsets.get(sid as usize) {
            Some(&off) => LowOp::LoadStr { rd: rd.0, off },
            None => LowOp::Trap { fault: Fault::BadString },
        },
        Inst::LoadGlobal { rd, gid } => LowOp::LoadGlobal { rd: rd.0, gid },
        Inst::StoreGlobal { gid, rs } => LowOp::StoreGlobal { gid, rs: rs.0 },
        Inst::Bin { op, rd, rs1, rs2 } => LowOp::Bin { op, rd: rd.0, rs1: rs1.0, rs2: rs2.0 },
        Inst::BinImm { op, rd, rs, imm } => LowOp::BinImm { op, rd: rd.0, rs: rs.0, imm },
        Inst::FBin { op, rd, rs1, rs2 } => LowOp::FBin { op, rd: rd.0, rs1: rs1.0, rs2: rs2.0 },
        Inst::FMulAdd { rd, rs1, rs2, rs3 } => {
            LowOp::FMulAdd { rd: rd.0, rs1: rs1.0, rs2: rs2.0, rs3: rs3.0 }
        }
        Inst::Neg { rd, rs } => LowOp::Neg { rd: rd.0, rs: rs.0 },
        Inst::Not { rd, rs } => LowOp::Not { rd: rd.0, rs: rs.0 },
        Inst::Cmp { rs1, rs2 } => LowOp::Cmp { rs1: rs1.0, rs2: rs2.0 },
        Inst::SetCc { cond, rd } => LowOp::SetCc { cond, rd: rd.0 },
        Inst::CmpSet { cond, rd, rs1, rs2 } => {
            LowOp::CmpSet { cond, rd: rd.0, rs1: rs1.0, rs2: rs2.0 }
        }
        Inst::LoadB { rd, base, idx } => LowOp::LoadB { rd: rd.0, base: base.0, idx: idx.0 },
        Inst::StoreB { rs, base, idx } => LowOp::StoreB { rs: rs.0, base: base.0, idx: idx.0 },
        Inst::LoadSlot { rd, slot } => LowOp::LoadSlot { rd: rd.0, slot },
        Inst::StoreSlot { rs, slot } => LowOp::StoreSlot { rs: rs.0, slot },
        Inst::Jmp { target } => LowOp::Jmp { target },
        Inst::JCc { cond, target } => LowOp::JCc { cond, target },
        Inst::CBr { cond, rs1, rs2, target } => {
            LowOp::CBr { cond, rs1: rs1.0, rs2: rs2.0, target }
        }
        Inst::JmpInd { rs } => LowOp::JmpInd { rs: rs.0 },
        Inst::SetArg { idx, rs } => LowOp::SetArg { idx, rs: rs.0 },
        Inst::LoadArg { rd, idx } => LowOp::LoadArg { rd: rd.0, idx },
        Inst::Call { sym } => {
            if sym.is_import() {
                match imports.get(sym.index() as usize) {
                    Some(name) => LowOp::CallImport { lib: libfn_of(name) },
                    None => LowOp::Trap { fault: Fault::BadCall },
                }
            } else {
                let callee = sym.index() as usize;
                match frame_slots.get(callee) {
                    Some(&slots) if callee < func_count => {
                        LowOp::CallLocal { callee: callee as u32, slots }
                    }
                    _ => LowOp::Trap { fault: Fault::BadCall },
                }
            }
        }
        Inst::GetRet { rd } => LowOp::GetRet { rd: rd.0 },
        Inst::SetRet { rs } => LowOp::SetRet { rs: rs.0 },
        Inst::Ret => LowOp::Ret,
        Inst::Push { rs } => LowOp::Push { rs: rs.0 },
        Inst::Pop { rd } => LowOp::Pop { rd: rd.0 },
        Inst::Syscall { num: _ } => LowOp::Syscall,
        Inst::Halt => LowOp::Halt,
        Inst::Nop => LowOp::Nop,
    }
}

/// Lower every decoded function. Runs once at `LoadedBinary::load`.
pub(crate) fn lower(
    code: &[Vec<Inst>],
    frame_slots: &[u32],
    imports: &[String],
    string_offsets: &[i64],
) -> LoweredBinary {
    let funcs = code
        .iter()
        .enumerate()
        .map(|(fi, insts)| LoweredFunc {
            ops: insts
                .iter()
                .map(|i| lower_inst(i, code.len(), frame_slots, imports, string_offsets))
                .collect(),
            class: insts.iter().map(classify).collect(),
            frame_slots: frame_slots[fi],
        })
        .collect();
    LoweredBinary { funcs }
}
