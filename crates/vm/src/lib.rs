//! # vm — dynamic analysis substrate
//!
//! The execution side of PATCHECKO's hybrid analysis: a region-tagged
//! interpreter for FWB binaries standing in for the paper's on-device
//! GDB/debugserver instrumentation. Provides:
//!
//! * [`loader`] — `dlopen`/`dlsym`/LIEF analogs: load a binary once, run
//!   any single function without "spawning the entire binary";
//! * [`exec`] — the reference interpreter with faults (crash pruning),
//!   instruction budgets (infinite-loop guard), and full tracing;
//! * [`engine`] — the fast engine: pre-lowered indexed dispatch, dense
//!   tracing, dirty-tracked snapshot resets; bitwise-identical profiles
//!   to the interpreter (DESIGN.md §15);
//! * [`trace`] — the 21 Table II dynamic features;
//! * [`env`](mod@env) — fixed execution environments (input + args + globals);
//! * [`fuzz`] — coverage-guided input generation (LibFuzzer analog);
//! * [`value`] — region-tagged runtime values.
//!
//! ## Example
//!
//! ```
//! use fwbin::{compile_library, Arch, OptLevel};
//! use fwlang::gen::Generator;
//! use vm::env::ExecEnv;
//! use vm::exec::VmConfig;
//! use vm::loader::LoadedBinary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Generator::new(8).library("libdemo");
//! let bin = compile_library(&lib, Arch::Arm64, OptLevel::O2)?;
//! let loaded = LoadedBinary::load(bin)?;
//! let env = ExecEnv::for_buffer(vec![1, 2, 3, 4], &[0]);
//! let result = loaded.run_any(0, &env, &VmConfig::default());
//! // Every run yields the 21 dynamic features of Table II.
//! assert_eq!(result.features.as_slice().len(), 21);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod env;
pub mod envpool;
pub mod exec;
pub mod fuzz;
pub mod loader;
pub(crate) mod lowered;
pub mod trace;
pub mod value;

pub use engine::FastVm;
pub use env::{ArgSpec, ExecEnv};
pub use envpool::EnvPool;
pub use exec::{Engine, Fault, Outcome, VmConfig};
pub use fuzz::{fuzz_function, FuzzConfig};
pub use loader::{LoadError, LoadedBinary, RunResult};
pub use trace::{DynFeatures, Trace, DYN_FEATURE_NAMES, NUM_DYN_FEATURES};
pub use value::{Addr, Region, Value};
