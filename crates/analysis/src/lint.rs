//! Lint passes: advisory findings that do not affect acceptance.
//!
//! Run by [`crate::verify`] on every download alongside the safety
//! analyses, so a `VerifyReport` always carries them. All findings are
//! [`Severity::Warning`](crate::diag::Severity); the `planp lint`
//! driver can escalate them with `--deny-warnings`.
//!
//! | code | finding |
//! |------|---------|
//! | L001 | unused `val` binding |
//! | L002 | unused `fun` |
//! | L003 | unused function parameter |
//! | L004 | constant `if` condition (unreachable branch) |
//! | L005 | exceptions may escape a channel (only when the policy does not require delivery) |
//! | L006 | channel never targeted by any send |
//! | L007 | binding shadows an enclosing binding |
//! | S001–S004 | state lints — see [`crate::state::state_lints`] |
//!
//! Channel parameters are exempt from L003: `ps`/`ss`/`p` are fixed by
//! the channel signature, and ignoring e.g. the channel state is
//! idiomatic (`ss : unit`). Names starting with `_` are exempt from the
//! unused lints.

use crate::diag::Diagnostic;
use crate::summary::ProgramSummary;
use crate::verifier::Policy;
use planp_lang::ast::Name;
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use std::collections::BTreeSet;

/// Runs every lint pass over `prog` and returns the findings sorted by
/// source position (then code), for deterministic output.
pub fn lint(prog: &TProgram, sum: &ProgramSummary, policy: Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unused_globals_and_funs(prog, &mut out);
    unused_params(prog, &mut out);
    constant_conditions(prog, &mut out);
    unhandled_exceptions(prog, sum, policy, &mut out);
    unreachable_channels(prog, sum, &mut out);
    shadowed_bindings(prog, &mut out);
    out.extend(crate::state::state_lints(prog, sum));
    out.sort_by_key(|d| (d.span.start, d.span.end, d.code));
    out
}

/// Visits every expression of the program, in declaration order.
fn walk_all<'p>(prog: &'p TProgram, f: &mut impl FnMut(&'p TExpr)) {
    for g in &prog.globals {
        g.init.walk(f);
    }
    for fun in &prog.funs {
        fun.body.walk(f);
    }
    if let Some(e) = &prog.proto_init {
        e.walk(f);
    }
    for ch in &prog.channels {
        if let Some(e) = &ch.initstate {
            e.walk(f);
        }
        ch.body.walk(f);
    }
}

fn exempt(name: &str) -> bool {
    name.starts_with('_')
}

/// L001 / L002: `val` globals and `fun`s never referenced anywhere.
fn unused_globals_and_funs(prog: &TProgram, out: &mut Vec<Diagnostic>) {
    let mut used_globals: BTreeSet<u32> = BTreeSet::new();
    let mut used_funs: BTreeSet<u32> = BTreeSet::new();
    walk_all(prog, &mut |e| match &e.kind {
        TExprKind::Global { index, .. } => {
            used_globals.insert(*index);
        }
        TExprKind::CallFun { index, .. } => {
            used_funs.insert(*index);
        }
        _ => {}
    });
    for (i, g) in prog.globals.iter().enumerate() {
        if !used_globals.contains(&(i as u32)) && !exempt(&g.name) {
            out.push(
                Diagnostic::warning("L001", g.span, format!("`val {}` is never used", g.name))
                    .note("remove the declaration or reference it"),
            );
        }
    }
    for (i, f) in prog.funs.iter().enumerate() {
        if !used_funs.contains(&(i as u32)) && !exempt(&f.name) {
            out.push(
                Diagnostic::warning("L002", f.span, format!("`fun {}` is never called", f.name))
                    .note("remove the declaration or call it"),
            );
        }
    }
}

/// L003: function parameters never read by the body. Parameters occupy
/// local slots `0..arity` exclusively, so slot comparison is exact.
fn unused_params(prog: &TProgram, out: &mut Vec<Diagnostic>) {
    for f in &prog.funs {
        let arity = f.params.len() as u32;
        let mut read: BTreeSet<u32> = BTreeSet::new();
        f.body.walk(&mut |e| {
            if let TExprKind::Local { slot, .. } = &e.kind {
                if *slot < arity {
                    read.insert(*slot);
                }
            }
        });
        for (slot, (name, _)) in f.params.iter().enumerate() {
            if !read.contains(&(slot as u32)) && !exempt(name) {
                out.push(
                    Diagnostic::warning(
                        "L003",
                        f.span,
                        format!("parameter `{}` of `fun {}` is never used", name, f.name),
                    )
                    .note("prefix it with `_` to silence this warning"),
                );
            }
        }
    }
}

/// L004: `if` conditions that are boolean literals — one branch can
/// never execute.
fn constant_conditions(prog: &TProgram, out: &mut Vec<Diagnostic>) {
    walk_all(prog, &mut |e| {
        if let TExprKind::If(c, _, _) = &e.kind {
            if let TExprKind::Bool(b) = &c.kind {
                let dead = if *b { "else" } else { "then" };
                out.push(
                    Diagnostic::warning("L004", c.span, format!("condition is always {b}"))
                        .note(format!("the {dead} branch is unreachable")),
                );
            }
        }
    });
}

/// L005: exceptions that may escape a channel body. Only reported when
/// the policy does not require delivery — under `require_delivery` the
/// delivery analysis already rejects escaping exceptions as an error —
/// because an escaping exception silently drops the packet (the runtime
/// fails open).
fn unhandled_exceptions(
    prog: &TProgram,
    sum: &ProgramSummary,
    policy: Policy,
    out: &mut Vec<Diagnostic>,
) {
    if policy.require_delivery {
        return;
    }
    for (ch, s) in prog.channels.iter().zip(&sum.channels) {
        if s.raises.is_empty() {
            continue;
        }
        let names: Vec<&str> = s
            .raises
            .iter()
            .filter_map(|id| prog.exns.get(*id as usize).map(|n| &**n))
            .collect();
        out.push(
            Diagnostic::warning(
                "L005",
                ch.span,
                format!(
                    "channel `{}` may raise unhandled exception(s): {}",
                    ch.name,
                    names.join(", ")
                ),
            )
            .note("an escaping exception aborts the run; the packet falls back to standard IP processing"),
        );
    }
}

/// L006: user-defined channels (any name but `network`) that no send in
/// the program targets — they can never receive a packet, because only
/// `network` overloads match untagged traffic. The `timer` channel is
/// exempt: the runtime dispatches synthetic self-addressed packets to
/// it when a `setTimer` deadline fires, so it is reachable without any
/// send targeting it.
fn unreachable_channels(prog: &TProgram, sum: &ProgramSummary, out: &mut Vec<Diagnostic>) {
    let mut targeted: BTreeSet<usize> = BTreeSet::new();
    for s in sum.channels.iter().chain(sum.funs.iter()) {
        for site in &s.sites {
            targeted.insert(site.target);
        }
    }
    for (i, ch) in prog.channels.iter().enumerate() {
        if !matches!(&*ch.name, "network" | "timer") && !targeted.contains(&i) {
            out.push(
                Diagnostic::warning(
                    "L006",
                    ch.span,
                    format!("channel `{}` is never targeted by any send", ch.name),
                )
                .note(
                    "only `network` overloads match untagged traffic; this channel is unreachable",
                ),
            );
        }
    }
}

/// L007: `let` bindings that shadow an enclosing binding (a parameter,
/// an outer `let`, or a top-level `val`/`fun` name).
fn shadowed_bindings(prog: &TProgram, out: &mut Vec<Diagnostic>) {
    let top: Vec<&Name> = prog
        .globals
        .iter()
        .map(|g| &g.name)
        .chain(prog.funs.iter().map(|f| &f.name))
        .collect();
    for f in &prog.funs {
        let mut scope = top.clone();
        scope.extend(f.params.iter().map(|(n, _)| n));
        shadow_walk(&f.body, &mut scope, out);
    }
    for ch in &prog.channels {
        let mut scope = top.clone();
        scope.push(&ch.ps_name);
        scope.push(&ch.ss_name);
        scope.push(&ch.pkt_name);
        shadow_walk(&ch.body, &mut scope, out);
        if let Some(e) = &ch.initstate {
            let mut scope = top.clone();
            shadow_walk(e, &mut scope, out);
        }
    }
    if let Some(e) = &prog.proto_init {
        let mut scope = top.clone();
        shadow_walk(e, &mut scope, out);
    }
}

fn shadow_walk<'p>(e: &'p TExpr, scope: &mut Vec<&'p Name>, out: &mut Vec<Diagnostic>) {
    match &e.kind {
        TExprKind::Let {
            name, init, body, ..
        } => {
            shadow_walk(init, scope, out);
            if scope.contains(&name) && !exempt(name) {
                out.push(
                    Diagnostic::warning(
                        "L007",
                        e.span,
                        format!("binding `{name}` shadows an enclosing binding"),
                    )
                    .note("rename one of the bindings to avoid confusion"),
                );
            }
            scope.push(name);
            shadow_walk(body, scope, out);
            scope.pop();
        }
        _ => {
            for c in e.children() {
                shadow_walk(c, scope, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use planp_lang::compile_front;

    fn lint_src(src: &str, policy: Policy) -> Vec<Diagnostic> {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        lint(&tp, &sum, policy)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    const CLEAN: &str = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                         (OnRemote(network, p); (ps + 1, ss))";

    #[test]
    fn clean_program_produces_no_findings() {
        assert!(lint_src(CLEAN, Policy::strict()).is_empty());
        assert!(lint_src(CLEAN, Policy::no_delivery()).is_empty());
    }

    #[test]
    fn unused_val_and_fun_detected() {
        let src = "val dead : int = 7\n\
                   fun unusedFn(x : int) : int = x\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))";
        let d = lint_src(src, Policy::strict());
        assert_eq!(codes(&d), vec!["L001", "L002"]);
        assert!(d[0].message.contains("dead"));
        assert!(d[1].message.contains("unusedFn"));
    }

    #[test]
    fn unused_param_detected_channel_params_exempt() {
        // `ss : unit` unused in the channel: no finding. The unused fun
        // parameter: L003.
        let src = "fun pick(a : int, b : int) : int = a\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (pick(ps, 2), ss))";
        let d = lint_src(src, Policy::strict());
        assert_eq!(codes(&d), vec!["L003"]);
        assert!(d[0].message.contains("`b`"));
    }

    #[test]
    fn constant_condition_detected() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); if true then (ps, ss) else (0, ss))";
        let d = lint_src(src, Policy::strict());
        assert_eq!(codes(&d), vec!["L004"]);
        assert!(d[0].notes[0].contains("else branch"));
    }

    #[test]
    fn unhandled_exception_only_without_delivery() {
        // The never-written table also draws S002, under every policy.
        let src = "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (tblGet(ss, ipSrc(#1 p)), ss))";
        assert_eq!(
            codes(&lint_src(src, Policy::strict())),
            vec!["S002"],
            "delivery analysis owns the escaping exception"
        );
        let d = lint_src(src, Policy::no_delivery());
        assert_eq!(codes(&d), vec!["L005", "S002"]);
        assert!(d[0].message.contains("NotFound"));
    }

    #[test]
    fn unreachable_channel_detected() {
        let src = "channel orphan(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))";
        let d = lint_src(src, Policy::no_delivery());
        assert_eq!(codes(&d), vec!["L006"]);
        // A targeted channel is fine.
        let src = "channel relay(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(relay, p); (ps, ss))\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(relay, p); (ps, ss))";
        assert!(lint_src(src, Policy::no_delivery()).is_empty());
        // `timer` is runtime-dispatched (setTimer), never send-targeted.
        let src = "channel timer(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (setTimer(10, 1); OnRemote(network, p); (ps, ss))";
        assert!(lint_src(src, Policy::no_delivery()).is_empty());
    }

    #[test]
    fn shadowed_binding_detected() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   let val ps : int = 9 in (OnRemote(network, p); (ps, ss)) end";
        let d = lint_src(src, Policy::strict());
        assert_eq!(codes(&d), vec!["L007"]);
        assert!(d[0].message.contains("`ps`"));
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = "val dead : int = 7\n\
                   channel orphan(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps, ss))";
        let d = lint_src(src, Policy::no_delivery());
        assert_eq!(codes(&d), vec!["L001", "L006"]);
        assert!(d[0].span.start < d[1].span.start);
    }
}
