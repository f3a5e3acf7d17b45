//! Static per-**site** cost bounds and superinstruction candidates.
//!
//! The [cost](crate::cost) analysis bounds a whole channel invocation;
//! this module refines that to individual expression *sites* so the
//! profiler (`planp-telemetry::profile`) can join what the engines
//! observe against what the analysis promised. A site id is the node's
//! source span start offset — the same identity both engines report
//! through `NetEnv::charge_site`, stable across engines, runs, and
//! recompiles of the same source.
//!
//! For each channel overload, [`site_bounds`] walks the body: every
//! node contributes `STEPS_PER_NODE` at its site, and a `CallFun`
//! re-walks the callee body once per call site, which is where a
//! callee site's call-path **multiplicity** comes from (call graphs
//! are acyclic, so the walk terminates). The per-site bound is
//! sound per dispatch for both engines: branches only *skip* nodes
//! (an `if` charges one arm, the bound counts both; short-circuit
//! operators may skip the right operand), and the JIT charges, block
//! by block, exactly the interpreter's nodes (folded constants and
//! fused instructions included). So for every site,
//! `observed_steps ≤ bound_steps × dispatches` — the
//! utilization-heatmap invariant the profiler enforces.
//!
//! [`superinstruction_candidates`] additionally detects the adjacent
//! hot-site shapes the bytecode tier (`planp_vm::jit`) fuses into
//! superinstructions where they take their plainest form — the
//! condition *is* the compare of a header read, or *is* the lookup:
//!
//! * `hdr_compare_branch` — an `if` whose condition loads a packet
//!   header field and compares it (the classic dispatch shape:
//!   `if tcpDst(h) = 80 then … else …`);
//! * `table_forward` — a table lookup (`tblGet`/`tblHas`) feeding a
//!   send (`OnRemote`/`OnNeighbor`) through a `let` or an `if`.
//!
//! Candidates are static; the profiler ranks them by observed steps.

use crate::paths::is_send;
use planp_lang::ast::Name;
use planp_lang::span::{line_col, LineIndex};
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use planp_vm::cost::STEPS_PER_NODE;
use std::collections::BTreeMap;

/// One expression site of a channel body (or of a function body
/// reachable from it), with its static per-dispatch step bound.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Site id: the node's span start offset.
    pub site: u32,
    /// Human label, `line:col:kind` (e.g. `3:12:prim.tcpDst`) — no
    /// spaces or semicolons, so it can serve as a flamegraph frame.
    pub label: String,
    /// Upper bound on steps this site charges per dispatch.
    pub bound_steps: u64,
}

/// The sites of one channel overload.
#[derive(Debug, Clone)]
pub struct ChannelSites {
    /// Channel name.
    pub name: Name,
    /// Overload index within the name group.
    pub overload: u32,
    /// All sites reachable from the body, ordered by site id.
    pub sites: Vec<SiteInfo>,
}

impl ChannelSites {
    /// Sum of the per-site bounds. This is ≥ the whole-body
    /// [`crate::CostBound::steps`] (which maxes over `if` arms where
    /// this sums them) — both are sound, this one site-decomposable.
    pub fn total_bound(&self) -> u64 {
        self.sites.iter().map(|s| s.bound_steps).sum()
    }
}

/// Per-site bounds for a whole program.
#[derive(Debug, Clone, Default)]
pub struct SiteReport {
    /// Per-channel site tables, parallel to `TProgram::channels`.
    pub channels: Vec<ChannelSites>,
}

/// Computes per-site step bounds for every channel overload of `prog`.
/// `src` is the program source, used only for `line:col` labels.
pub fn site_bounds(prog: &TProgram, src: &str) -> SiteReport {
    let lines = LineIndex::new(src);
    let channels = prog
        .channels
        .iter()
        .map(|ch| {
            let mut acc: BTreeMap<u32, (u64, String)> = BTreeMap::new();
            walk_sites(&ch.body, prog, &lines, &mut acc);
            ChannelSites {
                name: ch.name.clone(),
                overload: ch.overload,
                sites: acc
                    .into_iter()
                    .map(|(site, (bound_steps, label))| SiteInfo {
                        site,
                        label,
                        bound_steps,
                    })
                    .collect(),
            }
        })
        .collect();
    SiteReport { channels }
}

/// Adds one invocation of every node under `e` to `acc`, keyed by
/// site. Distinct nodes desugared onto the same span merge by summing
/// (still sound: the merged bound covers the merged observation).
fn walk_sites(
    e: &TExpr,
    prog: &TProgram,
    lines: &LineIndex,
    acc: &mut BTreeMap<u32, (u64, String)>,
) {
    let site = e.span.start;
    let entry = acc.entry(site).or_insert_with(|| {
        (
            0,
            format!("{}:{}", lines.line_col(site), kind_label(e, prog)),
        )
    });
    entry.0 = entry.0.saturating_add(STEPS_PER_NODE);
    for c in e.children() {
        walk_sites(c, prog, lines, acc);
    }
    if let TExprKind::CallFun { index, .. } = &e.kind {
        if let Some(f) = prog.funs.get(*index as usize) {
            walk_sites(&f.body, prog, lines, acc);
        }
    }
}

/// A short node-kind tag for site labels (no spaces or semicolons).
fn kind_label(e: &TExpr, prog: &TProgram) -> String {
    use TExprKind::*;
    match &e.kind {
        Int(_) => "int".into(),
        Bool(_) => "bool".into(),
        Str(_) => "str".into(),
        Char(_) => "char".into(),
        Unit => "unit".into(),
        Host(_) => "host".into(),
        Local { name, .. } => format!("local.{name}"),
        Global { .. } => "global".into(),
        Tuple(_) => "tuple".into(),
        Proj(i, _) => format!("proj.{i}"),
        CallFun { index, args: _ } => match prog.funs.get(*index as usize) {
            Some(f) => format!("call.{}", f.name),
            None => "call".into(),
        },
        CallPrim { prim, .. } => format!("prim.{}", planp_lang::prims::table().sig(*prim).name),
        If(..) => "if".into(),
        Let { name, .. } => format!("let.{name}"),
        Seq(_) => "seq".into(),
        Binop(op, ..) => format!("binop.{op:?}").to_lowercase(),
        Unop(op, _) => format!("unop.{op:?}").to_lowercase(),
        Raise(_) => "raise".into(),
        Handle(..) => "handle".into(),
        List(_) => "list".into(),
        OnRemote { chan, .. } => format!("send.{chan}"),
        OnNeighbor { chan, .. } => format!("sendn.{chan}"),
    }
}

/// An adjacent hot-site sequence worth fusing into a superinstruction
/// (the bytecode tier emits `BrScalarCmp` and `BrTblHas` for these).
#[derive(Debug, Clone)]
pub struct SuperinstructionCandidate {
    /// Pattern tag: `hdr_compare_branch` or `table_forward`.
    pub pattern: &'static str,
    /// Channel the sequence executes under.
    pub chan: Name,
    /// Overload index of that channel.
    pub overload: u32,
    /// Participating site ids, ascending.
    pub sites: Vec<u32>,
    /// `line:col` of the anchoring node.
    pub label: String,
}

/// The site of the first node under `e` (pre-order) that satisfies
/// `pred`, if any does.
fn find_site(e: &TExpr, pred: &dyn Fn(&TExprKind) -> bool) -> Option<u32> {
    if pred(&e.kind) {
        return Some(e.span.start);
    }
    e.children().find_map(|c| find_site(c, pred))
}

fn is_table_read(k: &TExprKind) -> bool {
    matches!(k, TExprKind::CallPrim { prim, .. }
        if matches!(planp_lang::prims::table().sig(*prim).name, "tblGet" | "tblHas"))
}

/// Detects superinstruction candidates in every channel overload of
/// `prog` (recursing into called functions), in source order.
pub fn superinstruction_candidates(prog: &TProgram, src: &str) -> Vec<SuperinstructionCandidate> {
    let mut out = Vec::new();
    for ch in &prog.channels {
        scan(&ch.body, prog, src, &ch.name, ch.overload, &mut out);
    }
    out
}

fn scan(
    e: &TExpr,
    prog: &TProgram,
    src: &str,
    chan: &Name,
    overload: u32,
    out: &mut Vec<SuperinstructionCandidate>,
) {
    let mut push = |pattern: &'static str, anchor: u32, mut sites: Vec<u32>| {
        sites.sort_unstable();
        sites.dedup();
        out.push(SuperinstructionCandidate {
            pattern,
            chan: chan.clone(),
            overload,
            sites,
            label: line_col(src, anchor).to_string(),
        });
    };
    match &e.kind {
        // `if <hdr-read … compare …> then … else …` — the dispatch shape.
        TExprKind::If(c, t, f) => {
            // The "load" of the dispatch shape: a scalar accessor.
            let hdr = find_site(c, &|k| {
                use planp_lang::prims::{table, Access};
                matches!(k, TExprKind::CallPrim { prim, .. }
                    if matches!(table().sig(*prim).access, Some(Access::Get(_))))
            });
            let cmp = find_site(c, &|k| {
                use planp_lang::ast::BinOp::*;
                matches!(k, TExprKind::Binop(op, ..) if matches!(op, Eq | Ne | Lt | Le | Gt | Ge))
            });
            if let Some(h) = hdr {
                if let Some(cm) = cmp {
                    push(
                        "hdr_compare_branch",
                        e.span.start,
                        vec![e.span.start, h, cm],
                    );
                }
            }
            // `if <table-read …> then <send …>` — lookup-then-forward.
            if let Some(tr) = find_site(c, &is_table_read) {
                if let Some(s) = find_site(t, &is_send).or_else(|| find_site(f, &is_send)) {
                    push("table_forward", e.span.start, vec![e.span.start, tr, s]);
                }
            }
        }
        // `let val x = tblGet(…) … in … OnRemote(…) …` — lookup feeding
        // a forward through a binding.
        TExprKind::Let { init, body, .. } => {
            if let Some(tr) = find_site(init, &is_table_read) {
                if let Some(s) = find_site(body, &is_send) {
                    push("table_forward", e.span.start, vec![e.span.start, tr, s]);
                }
            }
        }
        TExprKind::CallFun { index, .. } => {
            if let Some(f) = prog.funs.get(*index as usize) {
                scan(&f.body, prog, src, chan, overload, out);
            }
        }
        _ => {}
    }
    for c in e.children() {
        scan(c, prog, src, chan, overload, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;
    use planp_vm::env::MockEnv;
    use planp_vm::interp::Interp;
    use planp_vm::pkthdr::{addr, IpHdr, UdpHdr};
    use planp_vm::value::Value;

    fn setup(src: &str) -> (TProgram, SiteReport) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let report = site_bounds(&tp, src);
        (tp, report)
    }

    fn udp_packet() -> Value {
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, 2),
                addr(10, 0, 1, 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new(1000, 2000)),
            Value::Blob(bytes::Bytes::from_static(b"abcd")),
        ])
    }

    #[test]
    fn observed_per_site_within_per_site_bound() {
        let src = "fun dbl(x : int) : int = x * 2\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (if ps > 0 then (dbl(ps), ss) else (dbl(dbl(ps)), ss))";
        let (tp, report) = setup(src);
        let bounds: BTreeMap<u32, u64> = report.channels[0]
            .sites
            .iter()
            .map(|s| (s.site, s.bound_steps))
            .collect();
        let interp = Interp::new(&tp);
        for ps in [0, 5] {
            let mut env = MockEnv::new(addr(10, 0, 0, 1));
            interp
                .run_channel(0, &[], Value::Int(ps), Value::Unit, udp_packet(), &mut env)
                .unwrap();
            for (site, n) in env.site_profile() {
                let b = bounds
                    .get(&site)
                    .unwrap_or_else(|| panic!("site {site} not in static table"));
                assert!(n <= *b, "site {site}: observed {n} > bound {b} (ps={ps})");
            }
        }
    }

    #[test]
    fn call_multiplicity_scales_function_body_bounds() {
        // `dbl` is called twice, so its body sites must carry exactly
        // twice the single-call bound.
        let once = "fun dbl(x : int) : int = x * 2\n\
                    channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                    ((dbl(ps), ss))";
        let twice = "fun dbl(x : int) : int = x * 2\n\
                     channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                     ((dbl(ps) + dbl(ps), ss))";
        let (tp1, r1) = setup(once);
        let (tp2, r2) = setup(twice);
        let site1 = tp1.funs[0].body.span.start;
        let site2 = tp2.funs[0].body.span.start;
        let bound = |r: &SiteReport, site: u32| {
            r.channels[0]
                .sites
                .iter()
                .find(|s| s.site == site)
                .expect("function body site present")
                .bound_steps
        };
        assert_eq!(bound(&r2, site2), 2 * bound(&r1, site1));
    }

    #[test]
    fn labels_are_flame_safe_and_positioned() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 80 then (ps + 1, ss) else (ps, ss))";
        let (_, report) = setup(src);
        let sites = &report.channels[0].sites;
        assert!(!sites.is_empty());
        for s in sites {
            assert!(
                !s.label.contains(' ') && !s.label.contains(';'),
                "label {:?} not flame-safe",
                s.label
            );
        }
        // Nodes desugared or parsed onto the same start offset merge
        // (the condition's `=` starts at the `udpDst` token); the first
        // pre-order visitor names the merged site.
        assert!(sites.iter().any(|s| s.label.ends_with("binop.eq")));
        assert!(sites.iter().any(|s| s.label.ends_with(":if")));
    }

    #[test]
    fn detects_hdr_compare_branch_and_table_forward() {
        let src = "channel network(ps : int, ss : (host, host) hash_table, p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 80 then\n\
                      let val nh : host = tblGet(ss, ipDst(#1 p)) handle NotFound => ipDst(#1 p) in\n\
                        (OnRemote(network, p); (ps, ss))\n\
                      end\n\
                    else (ps, ss))";
        let tp = compile_front(src).unwrap();
        let cands = superinstruction_candidates(&tp, src);
        assert!(cands.iter().any(|c| c.pattern == "hdr_compare_branch"));
        assert!(cands.iter().any(|c| c.pattern == "table_forward"));
        for c in &cands {
            assert_eq!(&*c.chan, "network");
            assert!(c.sites.len() >= 2);
            assert!(c.sites.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
