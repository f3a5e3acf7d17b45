//! The recurrence every per-dispatch bound shares.
//!
//! Local termination (no recursion, no loops) makes the worst case of
//! one dispatch computable by structural induction over the typed AST.
//! A bound is a [`Bound`] — how two costs compose in sequence and at a
//! branch — plus an *atom*: what a single node contributes by itself.
//! [`worst_path`] supplies the rest:
//!
//! * **sequence adds** — a node's children all run (tuples, arguments,
//!   `let`, sequencing; `andalso`/`orelse` may skip the right operand,
//!   so the sum is an upper bound);
//! * **`if` is the condition then the worse arm** (`or` is per field, so
//!   the bound holds even when the worst arms differ per field);
//! * **`handle` adds** body and handler — the body may run to its
//!   deepest `raise` before the handler runs;
//! * **a call adds the callee's bound**, computed earlier in declaration
//!   order (bodies may call only earlier functions).
//!
//! The step/send bound ([`crate::cost`]), the insert/evict bound
//! ([`crate::state`]) and the duplication weights
//! ([`crate::duplication`]) are three atoms over this one recurrence.

use planp_lang::tast::{TExpr, TExprKind, TProgram};

/// True for the two send forms — the node two of the three atoms price.
pub(crate) fn is_send(k: &TExprKind) -> bool {
    matches!(k, TExprKind::OnRemote { .. } | TExprKind::OnNeighbor { .. })
}

/// A per-dispatch quantity with a worst case.
pub(crate) trait Bound: Copy {
    /// Sequential composition: both accrue.
    fn then(self, next: Self) -> Self;
    /// Branch merge: the worse of the two.
    fn or(self, other: Self) -> Self;
}

/// Worst case of `e` over all execution paths, where `atom` is what
/// each node contributes by itself and `funs` holds the bounds of the
/// functions declared so far. Evaluates `atom` once per node.
pub(crate) fn worst_path<B: Bound>(e: &TExpr, funs: &[B], atom: &mut impl FnMut(&TExpr) -> B) -> B {
    let mut b = atom(e);
    if let TExprKind::If(c, t, f) = &e.kind {
        let arms = worst_path(t, funs, atom).or(worst_path(f, funs, atom));
        return b.then(worst_path(c, funs, atom)).then(arms);
    }
    for c in e.children() {
        b = b.then(worst_path(c, funs, atom));
    }
    match e.kind {
        TExprKind::CallFun { index, .. } => b.then(funs[index as usize]),
        _ => b,
    }
}

/// The bound of every function body and of every channel body of
/// `prog`, parallel to `TProgram::funs` and `TProgram::channels`.
pub(crate) fn program_bounds<B: Bound>(
    prog: &TProgram,
    mut atom: impl FnMut(&TExpr) -> B,
) -> (Vec<B>, Vec<B>) {
    let mut funs = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        let b = worst_path(&f.body, &funs, &mut atom);
        funs.push(b);
    }
    let channels = prog
        .channels
        .iter()
        .map(|ch| worst_path(&ch.body, &funs, &mut atom))
        .collect();
    (funs, channels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;

    impl Bound for u64 {
        fn then(self, next: u64) -> u64 {
            self + next
        }
        fn or(self, other: u64) -> u64 {
            self.max(other)
        }
    }

    #[test]
    fn nested_ifs_evaluate_each_node_once() {
        // Twelve `if`s deep: folding the children and then folding the
        // arms again would double the work at every level.
        let mut body = String::from("(ps, ss)");
        for d in 0..12 {
            body = format!("if ps > {d} then {body} else (ps + {d}, ss)");
        }
        let tp = compile_front(&format!(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n{body}"
        ))
        .unwrap();
        let mut nodes = 0u64;
        tp.channels[0].body.walk(&mut |_| nodes += 1);
        let mut calls = 0u64;
        let worst = worst_path(&tp.channels[0].body, &[], &mut |_| {
            calls += 1;
            1u64
        });
        assert_eq!(calls, nodes);
        assert!(worst < nodes, "only the worse arm of each `if` counts");
    }
}
