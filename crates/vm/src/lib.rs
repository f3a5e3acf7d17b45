//! # planp-vm — execution engines for PLAN-P
//!
//! This crate executes type-checked PLAN-P programs two ways:
//!
//! * [`interp`] — the **portable interpreter**: a naive
//!   environment-passing tree walker with name-based variable lookup,
//!   playing the role of the paper's C interpreter;
//! * [`jit`] — the **JIT specializer**: the interpreter specialized with
//!   respect to the program — a compiler from the typed AST to a flat
//!   register bytecode (operands resolved to slots and tuple fields,
//!   pre-dispatched primitives, constant folding, typed scalar
//!   instructions selected from the checker's types, conditions as
//!   branches, two fused superinstructions) run by one `match` loop,
//!   playing the role of the Tempo-generated run-time specializer of
//!   section 2.2. It charges steps and sites per basic block, and the
//!   charges are the interpreter's, node for node.
//!
//! Both engines share one semantic core — [`ops`] for operators and
//! [`prims`] for the primitive library (whose *signatures* live in
//! [`planp_lang::prims`]) — so the JIT is maintained by maintaining the
//! interpreter, which is the paper's central engineering claim.
//!
//! Programs interact with their node through the [`env::NetEnv`] trait;
//! the simulator-backed implementation lives in `planp-runtime`, and
//! [`env::MockEnv`] supports tests and micro-benchmarks.
//!
//! ## Example
//!
//! ```
//! use std::rc::Rc;
//! use planp_vm::{jit, env::MockEnv, value::Value};
//!
//! let prog = Rc::new(planp_lang::compile_front(
//!     "channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps + 1, ss)",
//! ).unwrap());
//! let (compiled, stats) = jit::compile(prog);
//! assert!(stats.nodes > 0);
//! let mut env = MockEnv::new(0);
//! let pkt = Value::tuple(vec![
//!     Value::Ip(planp_vm::pkthdr::IpHdr::new(1, 2, 17)),
//!     Value::Udp(planp_vm::pkthdr::UdpHdr::new(9, 9)),
//!     Value::Blob(bytes::Bytes::new()),
//! ]);
//! let (ps, _ss) = compiled
//!     .run_channel(0, &[], Value::Int(0), Value::Unit, pkt, &mut env)
//!     .unwrap();
//! assert_eq!(ps.display(), "1");
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod audio;
pub mod cost;
pub mod env;
pub mod interp;
pub mod jit;
pub mod ops;
pub mod pkthdr;
pub mod prims;
pub mod table;
pub mod value;

pub use env::{ChanRef, Effect, MockEnv, NetEnv, SendKind};
pub use interp::Interp;
pub use jit::{compile, CodegenStats, CompiledProgram};
pub use value::{Value, VmError};
