//! The program download path (figure 1 of the paper): source text →
//! parse → type check → **verify** → **JIT compile**.
//!
//! This is the "late checking" pipeline the paper's router runs when a
//! program arrives: unverifiable programs are rejected unless the
//! download is authenticated ([`Policy::authenticated`]).

use crate::layer::ProgramShape;
use planp_analysis::{verify, Policy, VerifyReport};
use planp_lang::{compile_front, count_lines, LangError, TProgram};
use planp_vm::jit::{self, CodegenStats, CompiledProgram};
use std::cell::OnceCell;
use std::fmt;
use std::rc::Rc;

/// Why a download was refused.
#[derive(Debug)]
pub enum LoadError {
    /// Lexical, syntactic, or type error.
    Front(LangError),
    /// The verifier could not prove the properties the policy demands.
    /// Boxed: the report carries cost bounds and diagnostics, making it
    /// much larger than the `Ok` path should pay for.
    Rejected(Box<VerifyReport>),
    /// The program was accepted, but evaluating an initializer (a
    /// global, the protocol state, a channel's `initstate`) on the node
    /// raised — `val x : int = 1 div 0` passes every static check.
    Install(planp_vm::value::VmError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Front(e) => write!(f, "{e}"),
            LoadError::Rejected(r) => {
                writeln!(f, "program rejected by the verifier:")?;
                for e in r.errors() {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            LoadError::Install(e) => write!(f, "program failed to install: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<LangError> for LoadError {
    fn from(e: LangError) -> Self {
        LoadError::Front(e)
    }
}

/// A successfully downloaded, verified, and compiled program, ready to
/// be installed on any number of nodes (each installation gets its own
/// state).
pub struct LoadedProgram {
    /// The original source text.
    pub source: String,
    /// The typed program.
    pub prog: Rc<TProgram>,
    /// The JIT-compiled program (shareable; state lives per node).
    pub compiled: Rc<CompiledProgram>,
    /// The verifier's findings.
    pub report: VerifyReport,
    /// Code-generation statistics (the figure 3 measurement).
    pub codegen: CodegenStats,
    /// Source lines (the paper's "Number of lines" metric).
    pub lines: usize,
    /// What every node installed from this program shares, built at
    /// the first install (the download path itself never needs it).
    shape: OnceCell<Rc<ProgramShape>>,
}

impl LoadedProgram {
    /// The half of an installed layer that is the same on every node.
    pub(crate) fn shape(&self) -> &Rc<ProgramShape> {
        self.shape.get_or_init(|| Rc::new(ProgramShape::new(self)))
    }
}

impl fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadedProgram")
            .field("lines", &self.lines)
            .field("channels", &self.prog.channels.len())
            .field("accepted", &self.report.accepted())
            .field("codegen", &self.codegen)
            .finish()
    }
}

/// Runs the full download path on `source` under `policy`.
///
/// # Errors
///
/// [`LoadError::Front`] on malformed programs, [`LoadError::Rejected`]
/// when verification fails under the policy.
pub fn load(source: &str, policy: Policy) -> Result<LoadedProgram, LoadError> {
    let prog = Rc::new(compile_front(source)?);
    let report = verify(&prog, policy);
    if !report.accepted() {
        return Err(LoadError::Rejected(Box::new(report)));
    }
    let (compiled, codegen) = jit::compile(prog.clone());
    Ok(LoadedProgram {
        source: source.to_string(),
        prog,
        compiled: Rc::new(compiled),
        report,
        codegen,
        lines: count_lines(source),
        shape: OnceCell::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORWARDER: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                             (OnRemote(network, p); (ps, ss))";

    #[test]
    fn loads_good_program() {
        let lp = load(FORWARDER, Policy::strict()).unwrap();
        assert_eq!(lp.lines, 2);
        assert!(lp.report.accepted());
        assert!(lp.codegen.nodes > 0);
        assert_eq!(lp.compiled.channels.len(), 1);
    }

    #[test]
    fn front_errors_propagate() {
        let err = load("val x = ", Policy::strict()).unwrap_err();
        assert!(matches!(err, LoadError::Front(_)));
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn verifier_rejects_under_strict() {
        let dropper = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)";
        let err = load(dropper, Policy::strict()).unwrap_err();
        let LoadError::Rejected(report) = err else {
            panic!()
        };
        assert!(!report.accepted());
        // The same program loads under a monitor-friendly policy.
        assert!(load(dropper, Policy::no_delivery()).is_ok());
    }

    #[test]
    fn authenticated_download_skips_requirements() {
        let bouncer = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                       (OnNeighbor(network, 10.0.0.2, p); (ps, ss))";
        assert!(load(bouncer, Policy::strict()).is_err());
        assert!(load(bouncer, Policy::authenticated()).is_ok());
    }
}
