//! Function-level loading and execution — the paper's `dlopen`/`dlsym` +
//! LIEF workflow: "we utilize DLL injection to execute compact execution
//! binaries that correspond to a single target function [...] any candidate
//! function can be exported and executed without running the whole binary."
//!
//! [`LoadedBinary::load`] is the `dlopen` analog (decodes every function
//! once, and lowers them for the fast engine on their first run);
//! [`LoadedBinary::from_bytes`] additionally parses the FWB wire
//! container first, so malformed on-disk images surface as typed
//! [`LoadError`]s instead of panics; [`LoadedBinary::find_export`] is
//! `dlsym`; [`LoadedBinary::run_any`] is the LIEF-style export-anything
//! escape hatch that runs a function by table index regardless of export
//! status.

use crate::engine::FastVm;
use crate::env::ExecEnv;
use crate::exec::{lowerings_counter, Engine, ExecImage, Outcome, Vm, VmConfig};
use crate::lowered::{lower, LoweredBinary};
use crate::trace::DynFeatures;
use fwbin::encode::DecodeError;
use fwbin::format::{Binary, FormatError};
use fwbin::isa::Inst;
use std::sync::OnceLock;

/// Typed loader failure: every way a binary can refuse to load or a
/// function can be unavailable, with enough context (section, function,
/// byte offset) to locate the corruption in the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The FWB wire container itself is malformed (bad magic, truncated
    /// section, bad enum field, non-UTF-8 string).
    Container {
        /// The container-level parse failure.
        source: FormatError,
    },
    /// Function `function`'s code bytes failed to decode.
    Decode {
        /// Function-table index of the corrupt function.
        function: usize,
        /// Symbol name, when one survived stripping.
        name: Option<String>,
        /// The instruction-level decode failure (carries the byte offset
        /// within the function's code section).
        source: DecodeError,
    },
    /// A function index outside the binary's function table.
    NoSuchFunction {
        /// Requested index.
        index: usize,
        /// Function-table length.
        count: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Container { source } => write!(f, "malformed FWB container: {source}"),
            LoadError::Decode { function, name, source } => match name {
                Some(n) => write!(f, "function {function} (`{n}`): code section: {source}"),
                None => write!(f, "function {function}: code section: {source}"),
            },
            LoadError::NoSuchFunction { index, count } => {
                write!(f, "function index {index} out of range (table holds {count})")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Container { source } => Some(source),
            LoadError::Decode { source, .. } => Some(source),
            LoadError::NoSuchFunction { .. } => None,
        }
    }
}

impl From<FormatError> for LoadError {
    fn from(source: FormatError) -> LoadError {
        LoadError::Container { source }
    }
}

/// A binary with all functions pre-decoded, ready for repeated execution.
pub struct LoadedBinary {
    binary: Binary,
    code: Vec<Vec<Inst>>,
    frame_slots: Vec<u32>,
    strings_blob: Vec<u8>,
    string_offsets: Vec<i64>,
    /// Indexed-dispatch form for the fast engine, lowered on the first
    /// [`LoadedBinary::lowered`] call so that a binary the VM never runs
    /// (every profile served from a cache, or the reference interpreter
    /// selected) is never lowered; every later run skips decoding and
    /// classification.
    lowered: OnceLock<LoweredBinary>,
}

/// Result of a single function execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Termination status.
    pub outcome: Outcome,
    /// The 21 Table II dynamic features of the run.
    pub features: DynFeatures,
    /// Distinct program points executed (fuzzer coverage signal).
    pub coverage: u64,
}

impl LoadedBinary {
    /// Load (decode) a binary — the `dlopen` analog. Every function is
    /// decoded here, so a malformed one fails the load; the fast engine's
    /// lowering waits for the first run.
    ///
    /// # Errors
    /// Returns [`LoadError::Decode`] naming the first function whose code
    /// bytes are malformed (with its symbol name and the in-section byte
    /// offset from the decoder).
    pub fn load(binary: Binary) -> Result<LoadedBinary, LoadError> {
        let mut code = Vec::with_capacity(binary.function_count());
        let mut frame_slots = Vec::with_capacity(binary.function_count());
        for (i, f) in binary.functions.iter().enumerate() {
            let insts = binary.decode_function(i).map_err(|source| LoadError::Decode {
                function: i,
                name: f.name.clone(),
                source,
            })?;
            code.push(insts);
            frame_slots.push(f.frame_slots);
        }
        // Lay out the string pool as one NUL-terminated blob (the Lib
        // region).
        let mut strings_blob = Vec::new();
        let mut string_offsets = Vec::with_capacity(binary.strings.len());
        for s in &binary.strings {
            string_offsets.push(strings_blob.len() as i64);
            strings_blob.extend_from_slice(s.as_bytes());
            strings_blob.push(0);
        }
        Ok(LoadedBinary {
            binary,
            code,
            frame_slots,
            strings_blob,
            string_offsets,
            lowered: OnceLock::new(),
        })
    }

    /// Parse an FWB wire container and load it — the full `dlopen`-from-
    /// disk path. Malformed containers (truncated files, garbage, bad
    /// section fields) and undecodable functions both surface as typed
    /// [`LoadError`]s; no input can panic this path.
    ///
    /// # Errors
    /// [`LoadError::Container`] for wire-format failures,
    /// [`LoadError::Decode`] for per-function code corruption.
    pub fn from_bytes(data: &[u8]) -> Result<LoadedBinary, LoadError> {
        LoadedBinary::load(Binary::from_bytes(data)?)
    }

    /// The underlying binary.
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.code.len()
    }

    /// Decoded code of function `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range, like slice indexing; use
    /// [`LoadedBinary::try_run_any`] for untrusted indices.
    pub fn code(&self, idx: usize) -> &[Inst] {
        &self.code[idx]
    }

    /// `dlsym`: resolve an exported function by name.
    pub fn find_export(&self, name: &str) -> Option<usize> {
        self.binary
            .functions
            .iter()
            .position(|f| f.exported && f.name.as_deref() == Some(name))
    }

    /// The fast engine's form of every function, lowered on first use and
    /// counted under `vm.lowerings`. Lowering cannot fail (an operand it
    /// cannot resolve becomes a trap), so deferring it from
    /// [`LoadedBinary::load`] moves only its cost.
    pub(crate) fn lowered(&self) -> &LoweredBinary {
        self.lowered.get_or_init(|| {
            lowerings_counter().inc();
            lower(&self.code, &self.frame_slots, &self.binary.imports, &self.string_offsets)
        })
    }

    pub(crate) fn strings_blob(&self) -> &[u8] {
        &self.strings_blob
    }

    pub(crate) fn image(&self) -> ExecImage<'_> {
        ExecImage {
            code: &self.code,
            frame_slots: &self.frame_slots,
            imports: &self.binary.imports,
            strings_blob: &self.strings_blob,
            string_offsets: &self.string_offsets,
            globals_init: &self.binary.globals,
        }
    }

    /// Run any function by table index under `env` — the LIEF-style "export
    /// and execute without running the whole binary" primitive.
    ///
    /// # Panics
    /// Panics if `func` is out of range (the pipeline only passes indices
    /// produced by scanning this same binary); untrusted callers should use
    /// [`LoadedBinary::try_run_any`].
    pub fn run_any(&self, func: usize, env: &ExecEnv, cfg: &VmConfig) -> RunResult {
        assert!(
            func < self.code.len(),
            "function index {func} out of range (table holds {})",
            self.code.len()
        );
        match cfg.engine {
            Engine::Fast => {
                let mut vm = FastVm::new(self, cfg);
                vm.set_env(&env.input, &env.arg_values(), &env.global_overrides);
                vm.run(func)
            }
            Engine::Interp => {
                let image = self.image();
                let mut vm = Vm::new(&image, cfg, env.input.clone(), &env.global_overrides);
                let outcome = vm.run(func, env.arg_values());
                let features = vm.trace().features();
                let coverage = vm.trace().unique_count();
                RunResult { outcome, features, coverage }
            }
        }
    }

    /// [`LoadedBinary::run_any`] for untrusted indices: a bad index comes
    /// back as [`LoadError::NoSuchFunction`] instead of a panic.
    ///
    /// # Errors
    /// [`LoadError::NoSuchFunction`] when `func` is out of range.
    pub fn try_run_any(
        &self,
        func: usize,
        env: &ExecEnv,
        cfg: &VmConfig,
    ) -> Result<RunResult, LoadError> {
        if func >= self.code.len() {
            return Err(LoadError::NoSuchFunction { index: func, count: self.code.len() });
        }
        Ok(self.run_any(func, env, cfg))
    }

    /// Run an exported function by name (`dlsym` + call).
    ///
    /// Returns `None` if the name is not an exported symbol.
    pub fn run_export(&self, name: &str, env: &ExecEnv, cfg: &VmConfig) -> Option<RunResult> {
        self.find_export(name).map(|idx| self.run_any(idx, env, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Fault;
    use crate::value::Value;
    use fwbin::isa::{Arch, OptLevel};
    use fwlang::ast::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// data/len checksum function used across loader tests.
    fn sum_library() -> Library {
        let mut lib = Library::new("libsum");
        let mut f = Function {
            name: "sum_bytes".into(),
            params: vec![
                Param { name: "data".into(), ty: Ty::Buf },
                Param { name: "len".into(), ty: Ty::Int },
            ],
            locals: vec![],
            ret: Some(Ty::Int),
            body: vec![],
            exported: true,
        };
        let i = f.add_local("i", Ty::Int);
        let acc = f.add_local("acc", Ty::Int);
        f.body = vec![
            Stmt::Let { local: acc, value: Expr::ConstInt(0) },
            Stmt::For {
                var: i,
                start: Expr::ConstInt(0),
                end: Expr::Param(1),
                step: Expr::ConstInt(1),
                body: vec![Stmt::Let {
                    local: acc,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::Local(acc),
                        Expr::load(Expr::Param(0), Expr::Local(i)),
                    ),
                }],
            },
            Stmt::Return(Some(Expr::Local(acc))),
        ];
        lib.functions.push(f);
        lib
    }

    fn compile(lib: &Library, arch: Arch, opt: OptLevel) -> Result<Binary, String> {
        fwbin::compile_library(lib, arch, opt).map_err(|e| format!("compile: {e:?}"))
    }

    #[test]
    fn sum_bytes_computes_correctly_on_all_platforms() -> TestResult {
        let lib = sum_library();
        for arch in Arch::ALL {
            for opt in OptLevel::ALL {
                let bin = compile(&lib, arch, opt)?;
                let lb = LoadedBinary::load(bin)?;
                let env = ExecEnv::for_buffer(vec![1, 2, 3, 4, 5], &[]);
                let r = lb
                    .run_export("sum_bytes", &env, &VmConfig::default())
                    .ok_or("sum_bytes not exported")?;
                assert_eq!(
                    r.outcome,
                    Outcome::Returned(Value::Int(15)),
                    "wrong result on {arch}/{opt}"
                );
                assert!(r.features.feature(6) > 0.0, "instructions counted");
                assert_eq!(r.features.feature(18), 5.0, "5 anon-region reads on {arch}/{opt}");
            }
        }
        Ok(())
    }

    #[test]
    fn oob_access_faults() -> TestResult {
        let lib = sum_library();
        let bin = compile(&lib, Arch::Arm64, OptLevel::O1)?;
        let lb = LoadedBinary::load(bin)?;
        // Lie about the length: claims 10 bytes, provides 3.
        let env = ExecEnv {
            input: vec![1, 2, 3],
            args: vec![crate::env::ArgSpec::InputPtr, crate::env::ArgSpec::Int(10)],
            global_overrides: vec![],
        };
        let r = lb.run_any(0, &env, &VmConfig::default());
        assert!(
            matches!(r.outcome, Outcome::Fault(Fault::OutOfBounds(_))),
            "got {:?}",
            r.outcome
        );
        Ok(())
    }

    #[test]
    fn timeout_on_tiny_budget() -> TestResult {
        let lib = sum_library();
        let bin = compile(&lib, Arch::Arm64, OptLevel::O0)?;
        let lb = LoadedBinary::load(bin)?;
        let env = ExecEnv::for_buffer(vec![0; 64], &[]);
        let cfg = VmConfig { max_instructions: 10, ..VmConfig::default() };
        let r = lb.run_any(0, &env, &cfg);
        assert_eq!(r.outcome, Outcome::Timeout);
        Ok(())
    }

    #[test]
    fn dlsym_respects_export_table() -> TestResult {
        let mut lib = sum_library();
        lib.functions[0].exported = false;
        let mut bin = compile(&lib, Arch::X86, OptLevel::O1)?;
        bin.strip();
        let lb = LoadedBinary::load(bin)?;
        assert_eq!(lb.find_export("sum_bytes"), None, "stripped internal symbol");
        // ...but run_any still reaches it (the LIEF analog).
        let env = ExecEnv::for_buffer(vec![9, 1], &[]);
        let r = lb.run_any(0, &env, &VmConfig::default());
        assert_eq!(r.outcome, Outcome::Returned(Value::Int(10)));
        Ok(())
    }

    #[test]
    fn same_source_similar_dynamic_features_across_platforms() -> TestResult {
        // The core premise of the paper's dynamic stage: the same source
        // compiled differently produces *similar* dynamic features, with
        // identical memory-access profiles on the same input.
        let lib = sum_library();
        let env = ExecEnv::for_buffer(vec![7; 16], &[]);
        let a = {
            let bin = compile(&lib, Arch::X86, OptLevel::O0)?;
            LoadedBinary::load(bin)?.run_any(0, &env, &VmConfig::default())
        };
        let b = {
            let bin = compile(&lib, Arch::Arm64, OptLevel::O3)?;
            LoadedBinary::load(bin)?.run_any(0, &env, &VmConfig::default())
        };
        // Same anon traffic, same library/syscall counts.
        assert_eq!(a.features.feature(18), b.features.feature(18));
        assert_eq!(a.features.feature(20), b.features.feature(20));
        assert_eq!(a.features.feature(21), b.features.feature(21));
        // Instruction counts differ (O0/x86 is bulkier) but not wildly.
        let (ia, ib) = (a.features.feature(6), b.features.feature(6));
        assert!(ia > ib, "O0 x86 executes more instructions");
        assert!(ia / ib < 10.0, "same order of magnitude: {ia} vs {ib}");
        Ok(())
    }

    #[test]
    fn corrupt_code_section_reports_function_context() -> TestResult {
        let lib = sum_library();
        let mut bin = compile(&lib, Arch::Arm32, OptLevel::O1)?;
        // Garbage the code bytes of the (only) function.
        bin.functions[0].code = vec![0xEE, 0xEE, 0xEE];
        match LoadedBinary::load(bin).map(|_| ()) {
            Err(LoadError::Decode { function: 0, name, source }) => {
                assert_eq!(name.as_deref(), Some("sum_bytes"));
                // The decoder pins the corrupt byte offset.
                let msg = source.to_string();
                assert!(msg.contains("offset"), "decode error carries an offset: {msg}");
            }
            other => return Err(format!("expected Decode error, got {other:?}").into()),
        }
        Ok(())
    }

    #[test]
    fn malformed_container_reports_section_context() {
        // Garbage, truncation, empty input: typed container errors, never
        // a panic.
        for bytes in [&b"not an fwb container"[..], &b"FW"[..], &[][..]] {
            match LoadedBinary::from_bytes(bytes).map(|_| ()) {
                Err(LoadError::Container { .. }) => {}
                other => panic!("expected Container error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_container_roundtrip_is_typed() -> TestResult {
        let lib = sum_library();
        let bin = compile(&lib, Arch::Amd64, OptLevel::O2)?;
        let bytes = bin.to_bytes();
        // Every strict prefix must either load (impossible — lengths are
        // embedded) or fail with a typed error.
        for cut in [4usize, 8, bytes.len() / 2, bytes.len() - 1] {
            let e = LoadedBinary::from_bytes(&bytes[..cut])
                .err()
                .ok_or_else(|| format!("prefix of {cut} bytes unexpectedly loaded"))?;
            assert!(matches!(e, LoadError::Container { .. }), "cut {cut}: {e}");
        }
        // The intact bytes still load.
        assert_eq!(LoadedBinary::from_bytes(&bytes)?.function_count(), 1);
        Ok(())
    }

    #[test]
    fn load_defers_lowering_to_the_first_fast_run() -> TestResult {
        let bin = compile(&sum_library(), Arch::Arm64, OptLevel::O2)?;
        let env = ExecEnv::for_buffer(vec![4, 5], &[]);
        let lb = LoadedBinary::load(bin)?;
        assert!(lb.lowered.get().is_none(), "load alone lowers nothing");
        let interp = VmConfig { engine: Engine::Interp, ..VmConfig::default() };
        let nine = Outcome::Returned(Value::Int(9));
        assert_eq!(lb.run_any(0, &env, &interp).outcome, nine);
        assert!(lb.lowered.get().is_none(), "the interpreter runs the decoded code");
        assert_eq!(lb.run_any(0, &env, &VmConfig::default()).outcome, nine);
        assert!(lb.lowered.get().is_some(), "the first fast run lowers");
        Ok(())
    }

    #[test]
    fn try_run_any_rejects_bad_index() -> TestResult {
        let lib = sum_library();
        let bin = compile(&lib, Arch::X86, OptLevel::O0)?;
        let lb = LoadedBinary::load(bin)?;
        let env = ExecEnv::for_buffer(vec![1, 2], &[]);
        match lb.try_run_any(7, &env, &VmConfig::default()) {
            Err(LoadError::NoSuchFunction { index: 7, count: 1 }) => {}
            other => return Err(format!("expected NoSuchFunction, got {other:?}").into()),
        }
        let ok = lb.try_run_any(0, &env, &VmConfig::default())?;
        assert_eq!(ok.outcome, Outcome::Returned(Value::Int(3)));
        Ok(())
    }
}
