//! # planp-lang — the PLAN-P language front end
//!
//! PLAN-P is the domain-specific language for **Application-Specific
//! Protocols** (ASPs) from *"Adapting Distributed Applications Using
//! Extensible Networks"* (Thibault, Marant, Muller; ICDCS 1999). ASP
//! programs are downloaded into routers and end hosts, where they replace
//! the IP layer's packet processing for selected traffic.
//!
//! This crate contains everything up to (and including) the typed AST:
//!
//! * [`lexer`] / [`parser`] — SML-flavoured surface syntax, including the
//!   paper's `--` comments, host literals (`131.254.60.81`), projections
//!   (`#1 p`), and overloaded `channel` declarations;
//! * [`types`] — the monomorphic type language (`host`, `blob`, `ip`,
//!   `tcp`, `udp`, products, lists, hash tables);
//! * [`prims`] — the declarative primitive table (one source of truth for
//!   the type checker, the interpreter, and the JIT);
//! * [`typeck`] — the bidirectional type checker, which also enforces the
//!   structural restrictions behind the paper's safety guarantees (no
//!   recursion, pure initializers, valid packet types);
//! * [`tast`] — the typed AST consumed by `planp-analysis` and `planp-vm`;
//! * [`pretty`] — a re-parseable pretty-printer.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), planp_lang::LangError> {
//! let src = "
//!     channel network(ps : int, ss : unit, p : ip*udp*blob) is
//!       (OnRemote(network, p); (ps + 1, ss))
//! ";
//! let ast = planp_lang::parse_program(src)?;
//! let typed = planp_lang::typecheck(&ast)?;
//! assert_eq!(typed.channels.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod prims;
pub mod span;
pub mod tast;
pub mod token;
pub mod typeck;
pub mod types;

pub use ast::Program;
pub use error::LangError;
pub use parser::{parse_expr, parse_program};
pub use plan::{parse_plan, PlanAst};
pub use span::Span;
pub use tast::TProgram;
pub use typeck::typecheck;
pub use types::Type;

/// Parses and type-checks `src` in one step.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or type error.
pub fn compile_front(src: &str) -> Result<TProgram, LangError> {
    let ast = parse_program(src)?;
    typecheck(&ast)
}

/// Counts the non-blank, non-comment-only source lines of a program —
/// the "Number of lines" metric of the paper's figure 3.
pub fn count_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("--"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_front_pipeline() {
        let tp =
            compile_front("channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)")
                .unwrap();
        assert_eq!(tp.channels.len(), 1);
    }

    #[test]
    fn count_lines_skips_blanks_and_comments() {
        let src = "\n-- header comment\nval x : int = 1\n\n  -- another\nval y : int = 2\n";
        assert_eq!(count_lines(src), 2);
    }
}
