//! The VM cost model shared by the interpreter, the JIT, and the static
//! cost-bound analysis.
//!
//! Both engines account execution cost in abstract **steps** and report
//! them through [`NetEnv::charge_steps`](crate::env::NetEnv::charge_steps):
//!
//! * the portable interpreter charges [`STEPS_PER_NODE`] for every
//!   expression node it evaluates;
//! * the JIT charges [`STEPS_PER_NODE`] for every node of every basic
//!   block it completes — and, when an instruction raises in the middle
//!   of a block, for the nodes the interpreter would have evaluated by
//!   then — so for any program and input its step count **equals** the
//!   interpreter's (folded constants and fused instructions still
//!   charge every node they stand for).
//!
//! The static analysis in `planp-analysis` charges the same constant per
//! AST node along the worst-case execution path, which is why its bound
//! is sound for both engines: it over-approximates the interpreter
//! (branches and short-circuit operators only ever *skip* nodes), and the
//! JIT charges what the interpreter charges.

/// Abstract VM steps charged per evaluated expression node, by the
/// interpreter as it evaluates and by the JIT a block at a time.
pub const STEPS_PER_NODE: u64 = 1;
