//! The fast execution engine — the sfuzz-style rebuild of the hot loop.
//!
//! [`FastVm`] executes the pre-lowered form from `crate::lowered`
//! (operands unpacked, library routines resolved, classification bytes
//! precomputed), traces into dense per-function PC-count arrays instead of
//! hash maps, and resets between runs by restoring only what the previous
//! run dirtied (input watermark, touched globals, touched trace rows) —
//! never re-cloning the environment. Every observable output — outcome,
//! all 21 Table II features, coverage, edge ids, even the `vm.executions`
//! scope counter — is bitwise-identical to the interpreter in
//! [`crate::exec`]; the differential proptests in
//! `tests/engine_identity.rs` and the benches hold both engines to that.

use crate::env::ExecEnv;
use crate::exec::{eval_cond, executions_counter, int_binop, Engine, Fault, Outcome, Vm, VmConfig};
use crate::loader::{LoadedBinary, RunResult};
use crate::lowered::{
    LibFn, LowOp, LoweredBinary, CLASS_ARITH, CLASS_BRANCH, CLASS_CALL, CLASS_LOAD, CLASS_STORE,
};
use crate::trace::{edge_index, DynFeatures, EDGE_MAP_SIZE};
use crate::value::{Addr, Region, Value};

/// Index of `region` in [`Region::ALL`] / the F15–F19 feature block.
fn region_idx(region: Region) -> usize {
    match region {
        Region::Heap => 0,
        Region::Stack => 1,
        Region::Lib => 2,
        Region::Anon => 3,
        Region::Other => 4,
    }
}

/// Dense, reset-friendly trace state: per-function PC-indexed execution
/// counts instead of hash maps, an edge bitmap with a touched list, and
/// the same scalar/f64 accumulators as [`crate::trace::Trace`] (kept
/// op-for-op identical so the condensed features match bit for bit).
struct DenseTrace {
    binary_calls: u64,
    /// Executed-instruction count per classification byte (5 class bits ⇒
    /// 32 combinations): one unconditional bump per instruction replaces
    /// the interpreter's five per-instruction `matches!` tests. The total
    /// and per-class counts are exact integer sums over these buckets.
    class_counts: [u64; 32],
    region_access: [u64; 5],
    library_calls: u64,
    syscalls: u64,
    depth_min: u64,
    depth_max: u64,
    /// When `exact_depth`, the depth sums accumulate in integers and are
    /// converted once at condense time; otherwise they accumulate in f64
    /// per instruction like the interpreter. The integer path is bit-exact
    /// because every partial sum the interpreter computes is an
    /// integer-valued f64 below 2^53 (f64 addition of such values never
    /// rounds), which `new` verifies against the configured budget.
    exact_depth: bool,
    depth_sum_i: u64,
    depth_sumsq_i: u64,
    depth_sum_f: f64,
    depth_sumsq_f: f64,
    depth_samples: u64,
    /// Execution count per (function, pc); reset touches only dirty cells.
    pc_counts: Vec<Box<[u64]>>,
    /// Distinct executed `(func << 32) | pc` ids, pushed on each 0→1 count
    /// transition — lets `condense` and `reset` visit only executed program
    /// points instead of sweeping whole code rows.
    touched_pcs: Vec<u64>,
    edge_map: Box<[bool]>,
    touched_edges: Vec<u32>,
}

impl DenseTrace {
    fn new(code_lens: &[usize], cfg: &VmConfig) -> DenseTrace {
        // Depth samples are bounded by the instruction budget and each is
        // at most max_depth + 1, so the largest partial sum is
        // max_instructions * (max_depth + 1)^2; below 2^53 the integer
        // accumulators match the interpreter's sequential f64 adds exactly.
        let d = cfg.max_depth as u64 + 1;
        let exact_depth =
            cfg.max_instructions.checked_mul(d * d).is_some_and(|v| v < (1u64 << 53));
        DenseTrace {
            binary_calls: 0,
            class_counts: [0; 32],
            region_access: [0; 5],
            library_calls: 0,
            syscalls: 0,
            depth_min: u64::MAX,
            depth_max: 0,
            exact_depth,
            depth_sum_i: 0,
            depth_sumsq_i: 0,
            depth_sum_f: 0.0,
            depth_sumsq_f: 0.0,
            depth_samples: 0,
            pc_counts: code_lens.iter().map(|&n| vec![0u64; n].into_boxed_slice()).collect(),
            touched_pcs: Vec::new(),
            edge_map: vec![false; EDGE_MAP_SIZE].into_boxed_slice(),
            touched_edges: Vec::new(),
        }
    }

    /// Clear to a fresh-trace state, touching only rows the last run used.
    fn reset(&mut self) {
        self.binary_calls = 0;
        self.class_counts = [0; 32];
        self.region_access = [0; 5];
        self.library_calls = 0;
        self.syscalls = 0;
        self.depth_min = u64::MAX;
        self.depth_max = 0;
        self.depth_sum_i = 0;
        self.depth_sumsq_i = 0;
        self.depth_sum_f = 0.0;
        self.depth_sumsq_f = 0.0;
        self.depth_samples = 0;
        // The nonzero count cells are exactly the recorded distinct pcs, so
        // zeroing those — not whole code rows — is a full wipe.
        for i in 0..self.touched_pcs.len() {
            let p = self.touched_pcs[i];
            self.pc_counts[(p >> 32) as usize][(p & 0xffff_ffff) as usize] = 0;
        }
        self.touched_pcs.clear();
        for i in 0..self.touched_edges.len() {
            self.edge_map[self.touched_edges[i] as usize] = false;
        }
        self.touched_edges.clear();
    }

    fn record_edge(&mut self, func: u32, from: u32, to: u32) {
        let i = edge_index(func, from, to) as usize;
        if !self.edge_map[i] {
            self.edge_map[i] = true;
            self.touched_edges.push(i as u32);
        }
    }

    /// Sorted distinct edge ids (same values as `Trace::edge_ids`).
    fn edge_ids(&self) -> Vec<u32> {
        let mut v = self.touched_edges.clone();
        v.sort_unstable();
        v
    }

    /// Condense into (features, coverage), mirroring `Trace::features` /
    /// `Trace::unique_count` exactly: same formulas, same f64 op order.
    fn condense(&self, lowered: &LoweredBinary) -> (DynFeatures, u64) {
        // Integer sums over the 32 class buckets — exact, so identical to
        // the interpreter's per-instruction increments.
        let mut instructions = 0u64;
        let mut call_instructions = 0u64;
        let mut arith_instructions = 0u64;
        let mut branch_instructions = 0u64;
        let mut load_instructions = 0u64;
        let mut store_instructions = 0u64;
        for (c, &k) in self.class_counts.iter().enumerate() {
            instructions += k;
            let c = c as u8;
            if c & CLASS_CALL != 0 {
                call_instructions += k;
            }
            if c & CLASS_ARITH != 0 {
                arith_instructions += k;
            }
            if c & CLASS_BRANCH != 0 {
                branch_instructions += k;
            }
            if c & CLASS_LOAD != 0 {
                load_instructions += k;
            }
            if c & CLASS_STORE != 0 {
                store_instructions += k;
            }
        }
        let (dsum, dsumsq) = if self.exact_depth {
            (self.depth_sum_i as f64, self.depth_sumsq_i as f64)
        } else {
            (self.depth_sum_f, self.depth_sumsq_f)
        };
        let n = self.depth_samples.max(1) as f64;
        let mean = dsum / n;
        let var = (dsumsq / n - mean * mean).max(0.0);
        let dmin = if self.depth_samples == 0 { 0 } else { self.depth_min };
        // `touched_pcs` holds each executed (func, pc) exactly once, so its
        // length is the unique-pc coverage and the max scans visit only
        // executed points. Maxima over u64 are order-independent, so the
        // values match the interpreter's per-row sweep exactly.
        let unique = self.touched_pcs.len() as u64;
        let mut max_branch = 0u64;
        let mut max_arith = 0u64;
        for &p in &self.touched_pcs {
            let f = (p >> 32) as usize;
            let pc = (p & 0xffff_ffff) as usize;
            let c = self.pc_counts[f][pc];
            let cl = lowered.funcs[f].class[pc];
            if cl & CLASS_BRANCH != 0 && c > max_branch {
                max_branch = c;
            }
            if cl & CLASS_ARITH != 0 && c > max_arith {
                max_arith = c;
            }
        }
        let features = DynFeatures([
            self.binary_calls as f64,
            dmin as f64,
            self.depth_max as f64,
            mean,
            var.sqrt(),
            instructions as f64,
            unique as f64,
            call_instructions as f64,
            arith_instructions as f64,
            branch_instructions as f64,
            load_instructions as f64,
            store_instructions as f64,
            max_branch as f64,
            max_arith as f64,
            self.region_access[0] as f64,
            self.region_access[1] as f64,
            self.region_access[2] as f64,
            self.region_access[3] as f64,
            self.region_access[4] as f64,
            self.library_calls as f64,
            self.syscalls as f64,
        ]);
        (features, unique)
    }
}

/// The fast engine's memory: the mutable input buffer with a dirty
/// watermark, the heap with its allocation table, and the read-only
/// string blob. Bounds/permission semantics mirror the interpreter's
/// `read_region`/`store_byte`/`check_range` exactly.
struct FastMem<'a> {
    input: Vec<u8>,
    /// Dirty watermark over `input` (`lo..hi`; `lo >= hi` ⇒ clean).
    input_lo: usize,
    input_hi: usize,
    heap_data: Vec<u8>,
    /// (start, len, live) per allocation.
    heap_allocs: Vec<(usize, usize, bool)>,
    heap_limit: usize,
    blob: &'a [u8],
}

impl FastMem<'_> {
    fn heap_check(&self, off: i64, len: usize) -> Result<usize, Fault> {
        if off < 0 {
            return Err(Fault::OutOfBounds(Region::Heap));
        }
        let off = off as usize;
        for &(start, alen, live) in &self.heap_allocs {
            if off >= start && off + len <= start + alen {
                return if live { Ok(off) } else { Err(Fault::UseAfterFree) };
            }
        }
        Err(Fault::OutOfBounds(Region::Heap))
    }

    fn read(&self, addr: Addr) -> Result<u8, Fault> {
        match addr.region {
            Region::Anon => {
                if addr.offset < 0 || addr.offset as usize >= self.input.len() {
                    Err(Fault::OutOfBounds(Region::Anon))
                } else {
                    Ok(self.input[addr.offset as usize])
                }
            }
            Region::Heap => {
                let off = self.heap_check(addr.offset, 1)?;
                Ok(self.heap_data[off])
            }
            Region::Lib => {
                if addr.offset < 0 || addr.offset as usize >= self.blob.len() {
                    Err(Fault::OutOfBounds(Region::Lib))
                } else {
                    Ok(self.blob[addr.offset as usize])
                }
            }
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn write(&mut self, addr: Addr, byte: u8) -> Result<(), Fault> {
        match addr.region {
            Region::Anon => {
                if addr.offset < 0 || addr.offset as usize >= self.input.len() {
                    Err(Fault::OutOfBounds(Region::Anon))
                } else {
                    let o = addr.offset as usize;
                    self.input[o] = byte;
                    self.input_lo = self.input_lo.min(o);
                    self.input_hi = self.input_hi.max(o + 1);
                    Ok(())
                }
            }
            Region::Heap => {
                let off = self.heap_check(addr.offset, 1)?;
                self.heap_data[off] = byte;
                Ok(())
            }
            Region::Lib => Err(Fault::WriteToReadOnly),
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

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
                self.heap_check(p.offset, len)?;
                Ok(p)
            }
            Region::Lib => {
                if p.offset < 0 || p.offset as usize + len > self.blob.len() {
                    Err(Fault::OutOfBounds(Region::Lib))
                } else {
                    Ok(p)
                }
            }
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn read_bulk(&self, addr: Addr, len: usize, out: &mut Vec<u8>) -> Result<(), Fault> {
        out.clear();
        out.reserve(len);
        for i in 0..len {
            out.push(self.read(addr.offset_by(i as i64))?);
        }
        Ok(())
    }

    fn write_bulk(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Fault> {
        // Zero-length writes touch nothing (mirrors the interpreter).
        if bytes.is_empty() {
            return Ok(());
        }
        match addr.region {
            Region::Anon => {
                let s = addr.offset as usize;
                self.input[s..s + bytes.len()].copy_from_slice(bytes);
                self.input_lo = self.input_lo.min(s);
                self.input_hi = self.input_hi.max(s + bytes.len());
                Ok(())
            }
            Region::Heap => {
                let off = self.heap_check(addr.offset, bytes.len())?;
                self.heap_data[off..off + bytes.len()].copy_from_slice(bytes);
                Ok(())
            }
            Region::Lib => Err(Fault::WriteToReadOnly),
            Region::Stack | Region::Other => Err(Fault::BadPointer),
        }
    }

    fn alloc(&mut self, n: usize) -> Option<i64> {
        if self.heap_data.len() + n > self.heap_limit {
            return None;
        }
        let start = self.heap_data.len();
        self.heap_data.resize(start + n, 0);
        self.heap_allocs.push((start, n, true));
        Some(start as i64)
    }

    fn free(&mut self, off: i64) -> Result<(), Fault> {
        for a in &mut self.heap_allocs {
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
}

/// One reusable call frame; buffers keep their capacity across runs.
struct FastFrame {
    func: u32,
    pc: u32,
    /// Previous executed pc within this frame (`u32::MAX` = none yet).
    prev_pc: u32,
    regs: [Value; 64],
    slots: Vec<Value>,
    stack: Vec<Value>,
    args: Vec<Value>,
    pending_args: Vec<Value>,
    ret_val: Value,
    flags: Option<(Value, Value)>,
}

impl FastFrame {
    fn blank() -> FastFrame {
        FastFrame {
            func: 0,
            pc: 0,
            prev_pc: u32::MAX,
            regs: [Value::Int(0); 64],
            slots: Vec::new(),
            stack: Vec::new(),
            args: Vec::new(),
            pending_args: Vec::new(),
            ret_val: Value::Int(0),
            flags: None,
        }
    }

    /// Reinitialize for a fresh activation of `func`. `args` are installed
    /// separately by the caller (entry copy or pending-args swap).
    fn activate(&mut self, func: u32, slots: u32) {
        self.func = func;
        self.pc = 0;
        self.prev_pc = u32::MAX;
        self.regs = [Value::Int(0); 64];
        self.slots.clear();
        self.slots.resize(slots as usize, Value::Int(0));
        self.stack.clear();
        self.pending_args.clear();
        self.ret_val = Value::Int(0);
        self.flags = None;
    }
}

/// The fast VM: executes the lowered form of one binary, reusing all of
/// its buffers (frames, trace rows, heap, scratch) across runs.
///
/// Usage: [`FastVm::set_env`] installs an environment snapshot, then any
/// number of [`FastVm::run`] calls execute functions against it; each run
/// starts by restoring only the state the previous run dirtied.
pub struct FastVm<'a> {
    binary: &'a LoadedBinary,
    cfg: VmConfig,
    mem: FastMem<'a>,
    globals: Vec<Value>,
    trace: DenseTrace,
    frames: Vec<FastFrame>,
    /// Live frame count (frames[..depth] are active).
    depth: usize,
    executed: u64,
    last_ret: Value,
    // Installed environment snapshot.
    snap_input: Vec<u8>,
    snap_args: Vec<Value>,
    snap_globals: Vec<Value>,
    // Dirty-global tracking.
    dirty_gids: Vec<u32>,
    gid_marked: Box<[bool]>,
    // Scratch for bulk library routines and outgoing call arguments.
    scratch_a: Vec<u8>,
    scratch_b: Vec<u8>,
    call_args: Vec<Value>,
    /// Which pool environment is installed (`u64::MAX` = none); lets
    /// `EnvPool` skip re-installing an unchanged environment.
    pub(crate) env_token: u64,
}

impl<'a> FastVm<'a> {
    /// Build a reusable fast VM over `binary`. Allocates the dense trace
    /// rows once; everything else grows lazily and is then reused.
    pub fn new(binary: &'a LoadedBinary, cfg: &VmConfig) -> FastVm<'a> {
        let code_lens: Vec<usize> =
            (0..binary.function_count()).map(|i| binary.code(i).len()).collect();
        let n_globals = binary.binary().globals.len();
        FastVm {
            binary,
            cfg: cfg.clone(),
            mem: FastMem {
                input: Vec::new(),
                input_lo: usize::MAX,
                input_hi: 0,
                heap_data: Vec::new(),
                heap_allocs: Vec::new(),
                heap_limit: cfg.heap_limit,
                blob: binary.strings_blob(),
            },
            globals: Vec::new(),
            trace: DenseTrace::new(&code_lens, cfg),
            frames: Vec::new(),
            depth: 0,
            executed: 0,
            last_ret: Value::Int(0),
            snap_input: Vec::new(),
            snap_args: Vec::new(),
            snap_globals: Vec::new(),
            dirty_gids: Vec::new(),
            gid_marked: vec![false; n_globals].into_boxed_slice(),
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            call_args: Vec::new(),
            env_token: u64::MAX,
        }
    }

    /// Install an environment: input bytes, materialized argument values,
    /// and per-env global overrides (resolved against the initializers).
    pub fn set_env(&mut self, input: &[u8], args: &[Value], overrides: &[(u32, i64)]) {
        self.snap_globals.clear();
        self.snap_globals.extend(self.binary.binary().globals.iter().map(|&g| Value::Int(g)));
        for &(gid, v) in overrides {
            if let Some(slot) = self.snap_globals.get_mut(gid as usize) {
                *slot = Value::Int(v);
            }
        }
        self.install(input, args);
    }

    /// Install an environment whose global table is already resolved
    /// ([`crate::envpool::EnvPool`] snapshots).
    pub(crate) fn set_env_prepared(&mut self, input: &[u8], args: &[Value], globals: &[Value]) {
        self.snap_globals.clear();
        self.snap_globals.extend_from_slice(globals);
        self.install(input, args);
    }

    fn install(&mut self, input: &[u8], args: &[Value]) {
        self.snap_input.clear();
        self.snap_input.extend_from_slice(input);
        self.snap_args.clear();
        self.snap_args.extend_from_slice(args);
        self.mem.input.clear();
        self.mem.input.extend_from_slice(input);
        self.mem.input_lo = usize::MAX;
        self.mem.input_hi = 0;
        self.globals.clear();
        self.globals.extend_from_slice(&self.snap_globals);
        for i in 0..self.dirty_gids.len() {
            self.gid_marked[self.dirty_gids[i] as usize] = false;
        }
        self.dirty_gids.clear();
        self.env_token = u64::MAX;
    }

    /// Restore the installed snapshot, touching only state the previous
    /// run dirtied: the input watermark span, the dirty global list, the
    /// heap tables (capacity kept), and the touched trace rows.
    fn reset(&mut self) {
        if self.mem.input_lo < self.mem.input_hi {
            let hi = self.mem.input_hi.min(self.snap_input.len());
            let lo = self.mem.input_lo.min(hi);
            self.mem.input[lo..hi].copy_from_slice(&self.snap_input[lo..hi]);
        }
        self.mem.input_lo = usize::MAX;
        self.mem.input_hi = 0;
        for i in 0..self.dirty_gids.len() {
            let g = self.dirty_gids[i] as usize;
            self.globals[g] = self.snap_globals[g];
            self.gid_marked[g] = false;
        }
        self.dirty_gids.clear();
        self.mem.heap_data.clear();
        self.mem.heap_allocs.clear();
        self.trace.reset();
        self.executed = 0;
        self.last_ret = Value::Int(0);
        self.depth = 0;
    }

    /// Reset to the installed environment and run `func_idx`, producing
    /// the same [`RunResult`] as the interpreter path, bit for bit.
    pub fn run(&mut self, func_idx: usize) -> RunResult {
        self.reset();
        let outcome = self.exec(func_idx);
        let (features, coverage) = self.trace.condense(self.binary.lowered());
        RunResult { outcome, features, coverage }
    }

    /// Sorted distinct edge ids of the last run (coverage-guided fuzzing
    /// signal; same values as `Trace::edge_ids`).
    pub fn edge_ids(&self) -> Vec<u32> {
        self.trace.edge_ids()
    }

    /// Distinct edge ids of the last run in unspecified order (same set as
    /// [`FastVm::edge_ids`], minus the sort).
    fn edge_ids_unordered(&self) -> Vec<u32> {
        self.trace.touched_edges.clone()
    }

    fn ensure_frame(&mut self) {
        if self.depth == self.frames.len() {
            self.frames.push(FastFrame::blank());
        }
    }

    fn exec(&mut self, func_idx: usize) -> Outcome {
        executions_counter().inc();
        let lowered = self.binary.lowered();
        if func_idx >= lowered.funcs.len() {
            return Outcome::Fault(Fault::BadCall);
        }
        self.ensure_frame();
        self.frames[0].activate(func_idx as u32, lowered.funcs[func_idx].frame_slots);
        self.frames[0].args.clear();
        self.frames[0].args.extend_from_slice(&self.snap_args);
        self.depth = 1;
        loop {
            let di = self.depth - 1;
            let depth_u = self.depth as u64 + 1; // +1 models the loader frame
            // One frame borrow for the fetch: read func/pc/prev and advance
            // prev_pc in place (the write is unobservable before the pc
            // bounds/budget checks — a run that ends here never reads it).
            let (func, pc, prev) = {
                let f = &mut self.frames[di];
                let prev = f.prev_pc;
                f.prev_pc = f.pc;
                (f.func, f.pc, prev)
            };
            let lf = &lowered.funcs[func as usize];
            let pcu = pc as usize;
            if pcu >= lf.ops.len() {
                return Outcome::Fault(Fault::BadJump);
            }
            if self.executed >= self.cfg.max_instructions {
                return Outcome::Timeout;
            }
            self.executed += 1;
            // Dense record_inst: two array bumps — the pc count (with a
            // 0→1 touched-pc note) and the precomputed class bucket.
            let t = &mut self.trace;
            t.class_counts[lf.class[pcu] as usize] += 1;
            let cell = &mut t.pc_counts[func as usize][pcu];
            if *cell == 0 {
                t.touched_pcs.push(((func as u64) << 32) | pcu as u64);
            }
            *cell += 1;
            t.depth_min = t.depth_min.min(depth_u);
            t.depth_max = t.depth_max.max(depth_u);
            if t.exact_depth {
                t.depth_sum_i += depth_u;
                t.depth_sumsq_i += depth_u * depth_u;
            } else {
                t.depth_sum_f += depth_u as f64;
                t.depth_sumsq_f += (depth_u * depth_u) as f64;
            }
            t.depth_samples += 1;
            if prev != u32::MAX {
                t.record_edge(func, prev, pc);
            }
            let mut next_pc = pc + 1;
            macro_rules! fault {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(f) => return Outcome::Fault(f),
                    }
                };
            }
            match lf.ops[pcu] {
                LowOp::Trap { fault } => return Outcome::Fault(fault),
                LowOp::MovImm { rd, imm } => self.frames[di].regs[rd as usize] = Value::Int(imm),
                LowOp::FMovImm { rd, imm } => {
                    self.frames[di].regs[rd as usize] = Value::Float(imm)
                }
                LowOp::Mov { rd, rs } => {
                    let f = &mut self.frames[di];
                    f.regs[rd as usize] = f.regs[rs as usize];
                }
                LowOp::LoadStr { rd, off } => {
                    self.frames[di].regs[rd as usize] =
                        Value::Ptr(Addr { region: Region::Lib, offset: off })
                }
                LowOp::LoadGlobal { rd, gid } => {
                    self.trace.region_access[4] += 1;
                    let v = *fault!(self
                        .globals
                        .get(gid as usize)
                        .ok_or(Fault::OutOfBounds(Region::Other)));
                    self.frames[di].regs[rd as usize] = v;
                }
                LowOp::StoreGlobal { gid, rs } => {
                    self.trace.region_access[4] += 1;
                    let v = self.frames[di].regs[rs as usize];
                    let g = gid as usize;
                    if g >= self.globals.len() {
                        return Outcome::Fault(Fault::OutOfBounds(Region::Other));
                    }
                    if !self.gid_marked[g] {
                        self.gid_marked[g] = true;
                        self.dirty_gids.push(gid);
                    }
                    self.globals[g] = v;
                }
                LowOp::Bin { op, rd, rs1, rs2 } => {
                    let f = &mut self.frames[di];
                    let v = fault!(int_binop(op, f.regs[rs1 as usize], f.regs[rs2 as usize]));
                    f.regs[rd as usize] = v;
                }
                LowOp::BinImm { op, rd, rs, imm } => {
                    let f = &mut self.frames[di];
                    let v = fault!(int_binop(op, f.regs[rs as usize], Value::Int(imm)));
                    f.regs[rd as usize] = v;
                }
                LowOp::FBin { op, rd, rs1, rs2 } => {
                    let f = &mut self.frames[di];
                    let a = f.regs[rs1 as usize].as_float();
                    let b = f.regs[rs2 as usize].as_float();
                    let v = fault!(fwbin::astopt::eval_float_binop(op, a, b)
                        .ok_or(Fault::BadFloatOp));
                    f.regs[rd as usize] = Value::Float(v);
                }
                LowOp::FMulAdd { rd, rs1, rs2, rs3 } => {
                    let f = &mut self.frames[di];
                    let v = f.regs[rs1 as usize].as_float() * f.regs[rs2 as usize].as_float()
                        + f.regs[rs3 as usize].as_float();
                    f.regs[rd as usize] = Value::Float(v);
                }
                LowOp::Neg { rd, rs } => {
                    let f = &mut self.frames[di];
                    f.regs[rd as usize] = Value::Int(f.regs[rs as usize].as_int().wrapping_neg());
                }
                LowOp::Not { rd, rs } => {
                    let f = &mut self.frames[di];
                    f.regs[rd as usize] = Value::Int(!f.regs[rs as usize].is_truthy() as i64);
                }
                LowOp::Cmp { rs1, rs2 } => {
                    let f = &mut self.frames[di];
                    f.flags = Some((f.regs[rs1 as usize], f.regs[rs2 as usize]));
                }
                LowOp::SetCc { cond, rd } => {
                    let f = &mut self.frames[di];
                    let (a, b) = f.flags.unwrap_or((Value::Int(0), Value::Int(0)));
                    f.regs[rd as usize] = Value::Int(eval_cond(cond, a, b) as i64);
                }
                LowOp::CmpSet { cond, rd, rs1, rs2 } => {
                    let f = &mut self.frames[di];
                    let r = eval_cond(cond, f.regs[rs1 as usize], f.regs[rs2 as usize]);
                    f.regs[rd as usize] = Value::Int(r as i64);
                }
                LowOp::LoadB { rd, base, idx } => {
                    let (b, i) = {
                        let f = &self.frames[di];
                        (f.regs[base as usize], f.regs[idx as usize].as_int())
                    };
                    let p = fault!(b.as_ptr().ok_or(Fault::BadPointer));
                    let addr = p.offset_by(i);
                    self.trace.region_access[region_idx(addr.region)] += 1;
                    let byte = fault!(self.mem.read(addr));
                    self.frames[di].regs[rd as usize] = Value::Int(byte as i64);
                }
                LowOp::StoreB { rs, base, idx } => {
                    let (v, b, i) = {
                        let f = &self.frames[di];
                        (
                            f.regs[rs as usize].as_int() as u8,
                            f.regs[base as usize],
                            f.regs[idx as usize].as_int(),
                        )
                    };
                    let p = fault!(b.as_ptr().ok_or(Fault::BadPointer));
                    let addr = p.offset_by(i);
                    self.trace.region_access[region_idx(addr.region)] += 1;
                    fault!(self.mem.write(addr, v));
                }
                LowOp::LoadSlot { rd, slot } => {
                    self.trace.region_access[1] += 1;
                    let f = &mut self.frames[di];
                    let v = *fault!(f.slots.get(slot as usize).ok_or(Fault::BadSlot));
                    f.regs[rd as usize] = v;
                }
                LowOp::StoreSlot { rs, slot } => {
                    self.trace.region_access[1] += 1;
                    let f = &mut self.frames[di];
                    let v = f.regs[rs as usize];
                    let s = fault!(f.slots.get_mut(slot as usize).ok_or(Fault::BadSlot));
                    *s = v;
                }
                LowOp::Jmp { target } => next_pc = target,
                LowOp::JCc { cond, target } => {
                    let (a, b) =
                        self.frames[di].flags.unwrap_or((Value::Int(0), Value::Int(0)));
                    if eval_cond(cond, a, b) {
                        next_pc = target;
                    }
                }
                LowOp::CBr { cond, rs1, rs2, target } => {
                    let f = &self.frames[di];
                    if eval_cond(cond, f.regs[rs1 as usize], f.regs[rs2 as usize]) {
                        next_pc = target;
                    }
                }
                LowOp::JmpInd { rs } => {
                    let tgt = self.frames[di].regs[rs as usize].as_int();
                    if tgt < 0 || tgt as usize >= lf.ops.len() {
                        return Outcome::Fault(Fault::BadJump);
                    }
                    next_pc = tgt as u32;
                }
                LowOp::SetArg { idx, rs } => {
                    let f = &mut self.frames[di];
                    let v = f.regs[rs as usize];
                    let i = idx as usize;
                    if f.pending_args.len() <= i {
                        f.pending_args.resize(i + 1, Value::Int(0));
                    }
                    f.pending_args[i] = v;
                }
                LowOp::LoadArg { rd, idx } => {
                    let f = &mut self.frames[di];
                    f.regs[rd as usize] =
                        f.args.get(idx as usize).copied().unwrap_or(Value::Int(0));
                }
                LowOp::CallImport { lib } => {
                    // Move pending args through the reusable buffer (both
                    // vectors keep their capacity).
                    let mut args = std::mem::take(&mut self.call_args);
                    args.clear();
                    args.extend_from_slice(&self.frames[di].pending_args);
                    self.frames[di].pending_args.clear();
                    let r = self.library_call(lib, &args);
                    self.call_args = args;
                    self.last_ret = fault!(r);
                }
                LowOp::CallLocal { callee, slots } => {
                    if self.depth >= self.cfg.max_depth {
                        return Outcome::Fault(Fault::StackOverflow);
                    }
                    self.trace.binary_calls += 1;
                    self.frames[di].pc = next_pc; // return address
                    self.ensure_frame();
                    let (head, tail) = self.frames.split_at_mut(self.depth);
                    let caller = &mut head[di];
                    let callee_f = &mut tail[0];
                    callee_f.activate(callee, slots);
                    // Caller's pending args become the callee's args; the
                    // callee's stale buffer comes back cleared for reuse.
                    std::mem::swap(&mut caller.pending_args, &mut callee_f.args);
                    caller.pending_args.clear();
                    self.depth += 1;
                    continue;
                }
                LowOp::GetRet { rd } => self.frames[di].regs[rd as usize] = self.last_ret,
                LowOp::SetRet { rs } => {
                    let f = &mut self.frames[di];
                    f.ret_val = f.regs[rs as usize];
                }
                LowOp::Ret => {
                    self.last_ret = self.frames[di].ret_val;
                    self.depth -= 1;
                    if self.depth == 0 {
                        return Outcome::Returned(self.last_ret);
                    }
                    continue; // caller's pc was advanced at call time
                }
                LowOp::Push { rs } => {
                    self.trace.region_access[1] += 1;
                    let f = &mut self.frames[di];
                    let v = f.regs[rs as usize];
                    f.stack.push(v);
                }
                LowOp::Pop { rd } => {
                    self.trace.region_access[1] += 1;
                    let f = &mut self.frames[di];
                    let v = fault!(f.stack.pop().ok_or(Fault::PopEmpty));
                    f.regs[rd as usize] = v;
                }
                LowOp::Syscall => {
                    self.trace.syscalls += 1;
                    self.frames[di].pending_args.clear();
                }
                LowOp::Halt => return Outcome::Fault(Fault::Aborted),
                LowOp::Nop => {}
            }
            self.frames[di].pc = next_pc;
        }
    }

    fn library_call(&mut self, lib: LibFn, args: &[Value]) -> Result<Value, Fault> {
        self.trace.library_calls += 1;
        let arg = |i: usize| args.get(i).copied().unwrap_or(Value::Int(0));
        match lib {
            LibFn::Memmove => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let src = self.mem.check_range(arg(1), n)?;
                let dst = self.mem.check_range(arg(0), n)?;
                self.trace.region_access[region_idx(src.region)] += n as u64;
                self.mem.read_bulk(src, n, &mut self.scratch_a)?;
                self.trace.region_access[region_idx(dst.region)] += n as u64;
                self.mem.write_bulk(dst, &self.scratch_a)?;
                Ok(arg(0))
            }
            LibFn::Memset => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let dst = self.mem.check_range(arg(0), n)?;
                let byte = arg(1).as_int() as u8;
                self.scratch_a.clear();
                self.scratch_a.resize(n, byte);
                self.trace.region_access[region_idx(dst.region)] += n as u64;
                self.mem.write_bulk(dst, &self.scratch_a)?;
                Ok(arg(0))
            }
            LibFn::Memcmp => {
                let n = arg(2).as_int().clamp(0, 1 << 20) as usize;
                let a = self.mem.check_range(arg(0), n)?;
                let b = self.mem.check_range(arg(1), n)?;
                self.trace.region_access[region_idx(a.region)] += n as u64;
                self.mem.read_bulk(a, n, &mut self.scratch_a)?;
                self.trace.region_access[region_idx(b.region)] += n as u64;
                self.mem.read_bulk(b, n, &mut self.scratch_b)?;
                Ok(Value::Int(match self.scratch_a.cmp(&self.scratch_b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }))
            }
            LibFn::Strlen => {
                let p = arg(0).as_ptr().ok_or(Fault::BadPointer)?;
                let ri = region_idx(p.region);
                let mut n = 0i64;
                loop {
                    self.trace.region_access[ri] += 1;
                    let b = self.mem.read(p.offset_by(n))?;
                    if b == 0 {
                        return Ok(Value::Int(n));
                    }
                    n += 1;
                }
            }
            LibFn::Malloc => {
                let n = arg(0).as_int().clamp(0, 1 << 20) as usize;
                match self.mem.alloc(n) {
                    Some(off) => Ok(Value::Ptr(Addr { region: Region::Heap, offset: off })),
                    None => Ok(Value::Int(0)), // NULL on exhaustion
                }
            }
            LibFn::Free => match arg(0) {
                Value::Ptr(p) if p.region == Region::Heap => {
                    self.mem.free(p.offset)?;
                    Ok(Value::Int(0))
                }
                Value::Int(0) => Ok(Value::Int(0)), // free(NULL) is a no-op
                _ => Err(Fault::BadPointer),
            },
            LibFn::Abs => Ok(Value::Int(arg(0).as_int().wrapping_abs())),
            LibFn::Min => Ok(Value::Int(arg(0).as_int().min(arg(1).as_int()))),
            LibFn::Max => Ok(Value::Int(arg(0).as_int().max(arg(1).as_int()))),
            LibFn::Checksum => {
                let n = arg(1).as_int().clamp(0, 1 << 20) as usize;
                let p = self.mem.check_range(arg(0), n)?;
                self.trace.region_access[region_idx(p.region)] += n as u64;
                self.mem.read_bulk(p, n, &mut self.scratch_a)?;
                let mut h = 0xcbf29ce484222325u64;
                for &b in &self.scratch_a {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
                Ok(Value::Int(h as i64))
            }
            LibFn::LogEvent => {
                // Reads the message string (library-region traffic).
                if let Some(p) = arg(0).as_ptr() {
                    let ri = region_idx(p.region);
                    let mut n = 0i64;
                    while let Ok(b) = self.mem.read(p.offset_by(n)) {
                        self.trace.region_access[ri] += 1;
                        if b == 0 {
                            break;
                        }
                        n += 1;
                    }
                }
                Ok(Value::Int(0))
            }
            LibFn::Abort => Err(Fault::Aborted),
            LibFn::Unknown => Err(Fault::BadCall),
        }
    }
}

/// One engine-dispatched execution session over a binary: a reusable
/// [`FastVm`] under the fast engine, or per-run interpreter construction
/// under [`Engine::Interp`]. Returns the run's edge ids alongside the
/// result for coverage-guided fuzzing.
pub(crate) enum Session<'a> {
    /// Fast engine with its reusable VM.
    Fast(Box<FastVm<'a>>),
    /// Reference interpreter (fresh `Vm` per run).
    Interp {
        /// The binary to execute.
        binary: &'a LoadedBinary,
        /// VM limits.
        cfg: VmConfig,
    },
}

impl<'a> Session<'a> {
    pub(crate) fn new(binary: &'a LoadedBinary, cfg: &VmConfig) -> Session<'a> {
        match cfg.engine {
            Engine::Fast => Session::Fast(Box::new(FastVm::new(binary, cfg))),
            Engine::Interp => Session::Interp { binary, cfg: cfg.clone() },
        }
    }

    /// Run `func` under `env`, returning the result and the run's distinct
    /// edge ids in unspecified order — the fuzzer consumes edges purely as
    /// sets, so the per-round sort is skipped. The result and the edge
    /// *set* are identical between engines, bit for bit.
    pub(crate) fn run_env(&mut self, func: usize, env: &ExecEnv) -> (RunResult, Vec<u32>) {
        match self {
            Session::Fast(vm) => {
                vm.set_env(&env.input, &env.arg_values(), &env.global_overrides);
                let result = vm.run(func);
                let edges = vm.edge_ids_unordered();
                (result, edges)
            }
            Session::Interp { binary, cfg } => {
                let image = binary.image();
                let mut vm = Vm::new(&image, cfg, env.input.clone(), &env.global_overrides);
                let outcome = vm.run(func, env.arg_values());
                let result = RunResult {
                    outcome,
                    features: vm.trace().features(),
                    coverage: vm.trace().unique_count(),
                };
                let edges = vm.trace().edge_ids_unordered();
                (result, edges)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fwbin::isa::{Arch, OptLevel};
    use fwlang::gen::Generator;

    fn assert_bitwise(fast: &RunResult, interp: &RunResult, ctx: &str) {
        match (&fast.outcome, &interp.outcome) {
            (Outcome::Returned(Value::Float(a)), Outcome::Returned(Value::Float(b))) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: float return differs");
            }
            (a, b) => assert_eq!(a, b, "{ctx}: outcome differs"),
        }
        assert_eq!(
            fast.features.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            interp.features.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "{ctx}: features differ"
        );
        assert_eq!(fast.coverage, interp.coverage, "{ctx}: coverage differs");
    }

    /// One reusable `FastVm` across many (func, env, budget) combinations
    /// must match a fresh interpreter per run — outcomes, features,
    /// coverage, AND edge sets — including Timeout/Fault at tiny budgets.
    #[test]
    fn reused_fast_vm_matches_fresh_interpreter_including_edges() {
        for (seed, arch) in [(3u64, Arch::X86), (7, Arch::Arm64), (11, Arch::Arm32)] {
            let lib = Generator::new(seed).library_sized("libident", 4);
            let bin = fwbin::compile_library(&lib, arch, OptLevel::O1).unwrap();
            let loaded = LoadedBinary::load(bin).unwrap();
            let envs = [
                ExecEnv::for_buffer(vec![0xAB; 12], &[3, 1]),
                ExecEnv::for_buffer(vec![], &[0, 0]),
                ExecEnv::for_buffer((0..20).collect(), &[5, 2]),
            ];
            for budget in [1u64, 5, 17, 100, 200_000] {
                let cfg = VmConfig { max_instructions: budget, ..VmConfig::default() };
                let mut vm = FastVm::new(&loaded, &cfg);
                for func in 0..loaded.function_count() {
                    for env in &envs {
                        vm.set_env(&env.input, &env.arg_values(), &env.global_overrides);
                        let fast = vm.run(func);
                        let fast_edges = vm.edge_ids();
                        let image = loaded.image();
                        let mut ivm =
                            Vm::new(&image, &cfg, env.input.clone(), &env.global_overrides);
                        let outcome = ivm.run(func, env.arg_values());
                        let interp = RunResult {
                            outcome,
                            features: ivm.trace().features(),
                            coverage: ivm.trace().unique_count(),
                        };
                        let ctx = format!("seed {seed} {arch} func {func} budget {budget}");
                        assert_bitwise(&fast, &interp, &ctx);
                        assert_eq!(fast_edges, ivm.trace().edge_ids(), "{ctx}: edges differ");
                    }
                }
            }
        }
    }

    /// Out-of-range function indices return `Fault(BadCall)` identically
    /// (the session layer has no assert; panicking contracts live in
    /// `run_any`/`EnvPool::run`/`fuzz_function`).
    #[test]
    fn oob_function_index_is_badcall_on_both_engines() {
        let lib = Generator::new(5).library_sized("liboob", 2);
        let bin = fwbin::compile_library(&lib, Arch::Amd64, OptLevel::O2).unwrap();
        let loaded = LoadedBinary::load(bin).unwrap();
        let env = ExecEnv::for_buffer(vec![1, 2, 3], &[0]);
        let cfg = VmConfig::default();
        for engine in [Engine::Fast, Engine::Interp] {
            let mut s = Session::new(&loaded, &VmConfig { engine, ..cfg.clone() });
            let (r, edges) = s.run_env(99, &env);
            assert_eq!(r.outcome, Outcome::Fault(Fault::BadCall), "{engine:?}");
            assert_eq!(r.coverage, 0, "{engine:?}");
            assert!(edges.is_empty(), "{engine:?}");
        }
    }
}
