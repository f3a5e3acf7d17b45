//! Path-sensitive effect summaries of channel bodies.
//!
//! Every safety analysis in this crate is driven by the same abstract walk
//! over the typed AST. For each channel (and each function, inlined at
//! call sites) we compute:
//!
//! * the set of **send sites** — every `OnRemote`/`OnNeighbor` that might
//!   execute, with an abstraction of the packet's destination address;
//! * `min_out` — the minimum number of outputs (sends **or** `deliver`
//!   calls) over all execution paths (for the guaranteed-delivery check);
//! * the set of exceptions that may **escape** (for the all-exceptions-
//!   handled check).
//!
//! The destination abstraction mirrors the paper's observation that for
//! most protocols the only addresses available are the source and
//! destination of the IP header plus program constants (section 2.1).
//! It is derived here and nowhere else: an analysis that needs a send's
//! destination looks its [`SendSite`] up by span.

use crate::duplication::{compute_may_copy, DuplicationInfo};
use planp_lang::ast::{BinOp, Name};
use planp_lang::prims::{self, PrimId};
use planp_lang::span::Span;
use planp_lang::tast::*;
use planp_lang::types::Type;
use std::collections::BTreeSet;

/// Abstraction of a packet's destination address at a send site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestAbs {
    /// The destination is the arriving packet's destination, unchanged.
    /// Under the acyclic-routing assumption such a send makes progress:
    /// the packet strictly approaches its destination and is delivered on
    /// arrival.
    Unchanged,
    /// The destination was set to the arriving packet's *source*.
    OrigSrc,
    /// The destination was set to a program constant.
    Const(u32),
    /// The analysis cannot bound the destination.
    Unknown,
}

impl DestAbs {
    /// Joins two abstractions (used at `if`/`handle` merges).
    pub fn join(self, other: DestAbs) -> DestAbs {
        if self == other {
            self
        } else {
            DestAbs::Unknown
        }
    }

    /// True if the destination is a known IPv4 multicast group
    /// (`224.0.0.0/4`) — such a send is inherently copying.
    pub fn is_multicast_const(self) -> bool {
        matches!(self, DestAbs::Const(a) if (a >> 28) == 0xE)
    }
}

/// Whether a send site forwards toward the packet destination or jumps to
/// an explicit neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// `OnRemote` — routed toward the packet's IP destination.
    Remote,
    /// `OnNeighbor` — handed to an explicit neighbor node.
    Neighbor,
}

/// One potential send, as seen by the analyses.
#[derive(Debug, Clone)]
pub struct SendSite {
    /// Target channel name.
    pub chan: Name,
    /// Resolved index of the target channel in [`TProgram::channels`].
    pub target: usize,
    /// Destination abstraction (for `Neighbor` sends this abstracts the
    /// neighbor host argument).
    pub dest: DestAbs,
    /// Destination abstraction of the *sent packet's own* IP header.
    /// For `Remote` sends this equals [`SendSite::dest`]; for `Neighbor`
    /// sends `dest` abstracts the neighbor-host argument while
    /// `pkt_dest` tracks where the packet itself is addressed — which is
    /// what the next hop's dispatch sees.
    pub pkt_dest: DestAbs,
    /// True if the sent packet's IP *source* field is provably still the
    /// arriving packet's source. The model checker composes this across
    /// hops to decide whether an `ipSrc`-derived destination is a fixed
    /// address or an unknown one.
    pub src_orig: bool,
    /// Send flavor.
    pub kind: SendKind,
    /// Source location, for diagnostics.
    pub span: Span,
}

impl SendSite {
    /// True if this send is a *progress* send: an `OnRemote` that keeps
    /// the packet's destination unchanged. Progress sends terminate under
    /// the acyclic-routing assumption.
    pub fn is_progress(&self) -> bool {
        self.kind == SendKind::Remote && self.dest == DestAbs::Unchanged
    }
}

/// The effect summary of one channel body or function body.
#[derive(Debug, Clone, Default)]
pub struct ExprSummary {
    /// All send sites that might execute (including sites inside called
    /// functions).
    pub sites: Vec<SendSite>,
    /// Minimum number of outputs (sends + delivers) over all paths.
    pub min_out: u32,
    /// Exceptions ([`ExnId`] indices) that may escape.
    pub raises: BTreeSet<u32>,
}

/// Summaries for a whole program.
#[derive(Debug, Clone)]
pub struct ProgramSummary {
    /// Parallel to [`TProgram::funs`].
    pub funs: Vec<ExprSummary>,
    /// Parallel to [`TProgram::channels`].
    pub channels: Vec<ExprSummary>,
    /// The state-effect analysis: tables written, key-domain finiteness,
    /// per-dispatch insert bounds (see [`crate::state`]).
    pub state: crate::state::StateReport,
    /// The may-copy fix-point over the send sites above (see
    /// [`crate::duplication`]).
    pub duplication: DuplicationInfo,
}

impl ProgramSummary {
    /// The site recorded for the send node at `span`. A function's sites
    /// are cloned into every caller's list, so all entries for one span
    /// are equal and the first is as good as any.
    pub(crate) fn site_at(&self, span: Span) -> Option<&SendSite> {
        let bodies = self.channels.iter().chain(&self.funs);
        bodies.flat_map(|b| &b.sites).find(|s| s.span == span)
    }
}

/// Computes summaries for every function and channel of `prog`.
pub fn summarize(prog: &TProgram) -> ProgramSummary {
    let mut cx = Cx::new(prog);
    // One slot per local of the body walked; every slot starts opaque,
    // which is what a function's parameters and the states stay.
    let mut env = Vec::new();
    let mut funs = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        env.clear();
        env.resize(f.nlocals as usize, AbsVal::Opaque);
        let sum = cx.walk_root(&f.body, &mut env);
        cx.fun_sums.push(sum.clone());
        funs.push(sum);
    }
    let mut channels = Vec::with_capacity(prog.channels.len());
    for ch in &prog.channels {
        env.clear();
        env.resize(ch.nlocals as usize, AbsVal::Opaque);
        env[2] = AbsVal::Pkt; // the packet parameter
        channels.push(cx.walk_root(&ch.body, &mut env));
    }
    let mut sum = ProgramSummary {
        funs,
        channels,
        state: crate::state::state_effects(prog),
        duplication: DuplicationInfo::default(),
    };
    sum.duplication = compute_may_copy(prog, &sum);
    sum
}

/// Abstract values tracked by the destination analysis.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    /// The channel's packet parameter, untouched.
    Pkt,
    /// An IP header value.
    Ip {
        /// Destination abstraction.
        dest: DestAbs,
        /// True if the source field is still the original packet's source.
        src_orig: bool,
    },
    /// A host address.
    HostA(DestAbs),
    /// A tuple of abstract values.
    Tup(Vec<AbsVal>),
    /// Anything else.
    Opaque,
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Pkt, Pkt) => Pkt,
            (
                Ip {
                    dest: d1,
                    src_orig: s1,
                },
                Ip {
                    dest: d2,
                    src_orig: s2,
                },
            ) => Ip {
                dest: d1.join(d2),
                src_orig: s1 && s2,
            },
            (HostA(a), HostA(b)) => HostA(a.join(b)),
            (Tup(a), Tup(b)) if a.len() == b.len() => {
                Tup(a.into_iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            // The original packet joined with a rebuilt packet tuple:
            // the packet's header is `Ip { Unchanged, original src }`, so
            // the merged destination is still trackable. This is what
            // lets `if … then p else (iph, hdr, transformed)` keep its
            // progress-send classification.
            (Pkt, Tup(parts)) | (Tup(parts), Pkt) => {
                let mut out = vec![AbsVal::Opaque; parts.len()];
                if let Some(first) = parts.into_iter().next() {
                    out[0] = first.join(Ip {
                        dest: DestAbs::Unchanged,
                        src_orig: true,
                    });
                }
                Tup(out)
            }
            _ => Opaque,
        }
    }
}

/// Result of walking one expression.
struct Node {
    min_out: u32,
    raises: BTreeSet<u32>,
    abs: AbsVal,
}

impl Node {
    fn pure(abs: AbsVal) -> Node {
        Node {
            min_out: 0,
            raises: BTreeSet::new(),
            abs,
        }
    }

    fn then(mut self, next: Node) -> Node {
        self.min_out += next.min_out;
        self.raises.extend(next.raises);
        self.abs = next.abs;
        self
    }

    /// Either of two alternatives runs.
    fn or(mut self, other: Node) -> Node {
        self.min_out = self.min_out.min(other.min_out);
        self.raises.extend(other.raises);
        self.abs = self.abs.join(other.abs);
        self
    }
}

struct Cx<'p> {
    prog: &'p TProgram,
    fun_sums: Vec<ExprSummary>,
    sites: Vec<SendSite>,
    div_exn: u32,
    #[allow(clippy::disallowed_types)] // lookup-only: `entry` by primitive, never iterated
    prim_raise_cache: std::collections::HashMap<PrimId, Vec<u32>>,
}

impl<'p> Cx<'p> {
    fn new(prog: &'p TProgram) -> Self {
        let div_exn = prog.exn_id("Div").expect("Div is predeclared").0;
        Cx {
            prog,
            fun_sums: Vec::new(),
            sites: Vec::new(),
            div_exn,
            prim_raise_cache: Default::default(),
        }
    }

    fn walk_root(&mut self, body: &TExpr, env: &mut [AbsVal]) -> ExprSummary {
        self.sites.clear();
        let node = self.walk(body, env);
        ExprSummary {
            sites: std::mem::take(&mut self.sites),
            min_out: node.min_out,
            raises: node.raises,
        }
    }

    fn prim_raises(&mut self, id: PrimId) -> &[u32] {
        let prog = self.prog;
        self.prim_raise_cache.entry(id).or_insert_with(|| {
            let raises = prims::table().sig(id).raises.iter();
            raises.filter_map(|n| prog.exn_id(n).map(|e| e.0)).collect()
        })
    }

    fn resolve_target(&self, chan: &Name, overload: u32) -> usize {
        self.prog.chan_groups[chan][overload as usize]
    }

    /// Walks the children of `e` in order; the value is the last one's.
    fn seq(&mut self, e: &TExpr, env: &mut [AbsVal]) -> Node {
        e.children().fold(Node::pure(AbsVal::Opaque), |node, c| {
            node.then(self.walk(c, env))
        })
    }

    fn walk(&mut self, e: &TExpr, env: &mut [AbsVal]) -> Node {
        use TExprKind::*;
        match &e.kind {
            Int(_) | Bool(_) | Str(_) | Char(_) | Unit => Node::pure(AbsVal::Opaque),
            Host(a) => Node::pure(AbsVal::HostA(DestAbs::Const(*a))),
            Local { slot, .. } => Node::pure(env[*slot as usize].clone()),
            Global { index, .. } => {
                let g = &self.prog.globals[*index as usize];
                let abs = if g.ty == Type::Host {
                    if let TExprKind::Host(a) = g.init.kind {
                        AbsVal::HostA(DestAbs::Const(a))
                    } else {
                        AbsVal::HostA(DestAbs::Unknown)
                    }
                } else {
                    AbsVal::Opaque
                };
                Node::pure(abs)
            }
            Tuple(items) => {
                let mut node = Node::pure(AbsVal::Opaque);
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    let n = self.walk(item, env);
                    parts.push(n.abs.clone());
                    node = node.then(n);
                }
                node.abs = AbsVal::Tup(parts);
                node
            }
            Proj(i, inner) => {
                let n = self.walk(inner, env);
                let abs = match &n.abs {
                    AbsVal::Pkt if *i == 0 => AbsVal::Ip {
                        dest: DestAbs::Unchanged,
                        src_orig: true,
                    },
                    AbsVal::Tup(parts) => parts.get(*i as usize).cloned().unwrap_or(AbsVal::Opaque),
                    _ => AbsVal::Opaque,
                };
                Node { abs, ..n }
            }
            CallFun { index, .. } => {
                let mut node = self.seq(e, env);
                let fs = self.fun_sums[*index as usize].clone();
                node.min_out += fs.min_out;
                node.raises.extend(fs.raises.iter().copied());
                self.sites.extend(fs.sites.iter().cloned());
                node.abs = AbsVal::Opaque;
                node
            }
            CallPrim { prim, args } => {
                let mut node = Node::pure(AbsVal::Opaque);
                let mut arg_abs = Vec::with_capacity(args.len());
                for a in args {
                    let n = self.walk(a, env);
                    arg_abs.push(n.abs.clone());
                    node = node.then(n);
                }
                node.raises.extend(self.prim_raises(*prim));
                let name = prims::table().sig(*prim).name;
                if name == "deliver" {
                    node.min_out += 1;
                }
                node.abs = prim_abs(name, &arg_abs);
                node
            }
            If(c, t, f) => {
                let cn = self.walk(c, env);
                let tn = self.walk(t, env);
                cn.then(tn.or(self.walk(f, env)))
            }
            Let {
                slot, init, body, ..
            } => {
                // The checker allocates slots as a stack, so a slot is
                // never re-bound while its binding is live: nothing to
                // restore afterwards.
                let init_n = self.walk(init, env);
                env[*slot as usize] = init_n.abs.clone();
                init_n.then(self.walk(body, env))
            }
            Seq(_) => self.seq(e, env),
            List(_) | Unop(..) => Node {
                abs: AbsVal::Opaque,
                ..self.seq(e, env)
            },
            Binop(op, _, b) => {
                let mut node = self.seq(e, env);
                // Division by a nonzero constant cannot raise `Div`.
                let const_nonzero = matches!(b.kind, TExprKind::Int(n) if n != 0);
                if matches!(op, BinOp::Div | BinOp::Mod) && !const_nonzero {
                    node.raises.insert(self.div_exn);
                }
                node.abs = AbsVal::Opaque;
                node
            }
            Raise(id) => {
                let mut node = Node::pure(AbsVal::Opaque);
                node.raises.insert(id.0);
                node
            }
            Handle(body, pat, handler) => {
                let mut bn = self.walk(body, env);
                let hn = self.walk(handler, env);
                // If the body cannot raise, the handler is dead code.
                let min_out = if bn.raises.is_empty() {
                    bn.min_out
                } else {
                    bn.min_out.min(hn.min_out)
                };
                match pat {
                    None => bn.raises.clear(),
                    Some(exn) => {
                        bn.raises.remove(&exn.0);
                    }
                }
                Node {
                    min_out,
                    ..bn.or(hn)
                }
            }
            OnRemote {
                chan,
                overload,
                pkt,
            } => {
                let pn = self.walk(pkt, env);
                let dest = dest_of(&pn.abs);
                self.sites.push(SendSite {
                    chan: chan.clone(),
                    target: self.resolve_target(chan, *overload),
                    dest,
                    pkt_dest: dest,
                    src_orig: src_of(&pn.abs),
                    kind: SendKind::Remote,
                    span: e.span,
                });
                Node {
                    min_out: pn.min_out + 1,
                    abs: AbsVal::Opaque,
                    ..pn
                }
            }
            OnNeighbor {
                chan,
                overload,
                host,
                pkt,
            } => {
                let hn = self.walk(host, env);
                let pn = self.walk(pkt, env);
                let dest = match &hn.abs {
                    AbsVal::HostA(d) => *d,
                    _ => DestAbs::Unknown,
                };
                self.sites.push(SendSite {
                    chan: chan.clone(),
                    target: self.resolve_target(chan, *overload),
                    dest,
                    pkt_dest: dest_of(&pn.abs),
                    src_orig: src_of(&pn.abs),
                    kind: SendKind::Neighbor,
                    span: e.span,
                });
                let mut node = hn.then(pn);
                node.min_out += 1;
                node.abs = AbsVal::Opaque;
                node
            }
        }
    }
}

/// True if a sent packet expression provably carries the arriving
/// packet's original source address in its IP source field.
fn src_of(abs: &AbsVal) -> bool {
    match abs {
        AbsVal::Pkt => true,
        AbsVal::Tup(parts) => matches!(parts.first(), Some(AbsVal::Ip { src_orig: true, .. })),
        AbsVal::Ip { src_orig, .. } => *src_orig,
        _ => false,
    }
}

/// Destination abstraction of a sent packet expression.
fn dest_of(abs: &AbsVal) -> DestAbs {
    match abs {
        AbsVal::Pkt => DestAbs::Unchanged,
        AbsVal::Tup(parts) => match parts.first() {
            Some(AbsVal::Ip { dest, .. }) => *dest,
            _ => DestAbs::Unknown,
        },
        AbsVal::Ip { dest, .. } => *dest,
        _ => DestAbs::Unknown,
    }
}

/// Abstract transfer functions for header-manipulating primitives.
fn prim_abs(name: &str, args: &[AbsVal]) -> AbsVal {
    match name {
        "ipSrc" => match &args[0] {
            AbsVal::Ip { src_orig: true, .. } => AbsVal::HostA(DestAbs::OrigSrc),
            _ => AbsVal::HostA(DestAbs::Unknown),
        },
        "ipDst" => match &args[0] {
            AbsVal::Ip { dest, .. } => AbsVal::HostA(*dest),
            _ => AbsVal::HostA(DestAbs::Unknown),
        },
        "ipDestSet" => {
            let dest = match &args[1] {
                AbsVal::HostA(d) => *d,
                _ => DestAbs::Unknown,
            };
            let src_orig = matches!(&args[0], AbsVal::Ip { src_orig: true, .. });
            AbsVal::Ip { dest, src_orig }
        }
        "ipSrcSet" => {
            let dest = match &args[0] {
                AbsVal::Ip { dest, .. } => *dest,
                _ => DestAbs::Unknown,
            };
            AbsVal::Ip {
                dest,
                src_orig: false,
            }
        }
        // Payload/header transformations preserve nothing we track.
        _ => AbsVal::Opaque,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;

    fn summarize_src(src: &str) -> (TProgram, ProgramSummary) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        (tp, sum)
    }

    #[test]
    fn forward_unchanged_is_progress() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        );
        let s = &sum.channels[0];
        assert_eq!(s.sites.len(), 1);
        assert!(s.sites[0].is_progress());
        assert_eq!(s.min_out, 1);
        assert!(s.raises.is_empty());
    }

    #[test]
    fn dest_set_to_constant() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, 10.0.0.9), #2 p, #3 p)); (ps, ss))",
        );
        let a = (10u32 << 24) | 9;
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Const(a));
        assert!(!sum.channels[0].sites[0].is_progress());
    }

    #[test]
    fn dest_set_to_source() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p)); (ps, ss))",
        );
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::OrigSrc);
    }

    #[test]
    fn dest_set_to_own_dst_is_unchanged() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, ipDst(#1 p)), #2 p, #3 p)); (ps, ss))",
        );
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Unchanged);
        assert!(sum.channels[0].sites[0].is_progress());
    }

    #[test]
    fn let_bound_header_tracked() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             let val iph : ip = #1 p in\n\
               (OnRemote(network, (ipDestSet(iph, 10.1.1.1), #2 p, #3 p)); (ps, ss))\n\
             end",
        );
        let a = (10u32 << 24) | (1 << 16) | (1 << 8) | 1;
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Const(a));
    }

    #[test]
    fn global_host_constant_resolves() {
        let (_, sum) = summarize_src(
            "val srv : host = 10.2.2.2\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, (ipDestSet(#1 p, srv), #2 p, #3 p)); (ps, ss))",
        );
        assert!(matches!(sum.channels[0].sites[0].dest, DestAbs::Const(_)));
    }

    #[test]
    fn branch_min_and_max() {
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             if ps > 0 then (OnRemote(network, p); (ps, ss)) else (ps, ss)",
        );
        let s = &sum.channels[0];
        assert_eq!(s.min_out, 0);
    }

    #[test]
    fn deliver_counts_for_min_out_not_sends() {
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (deliver(p); (ps, ss))",
        );
        let s = &sum.channels[0];
        assert_eq!(s.min_out, 1);
    }

    #[test]
    fn raises_escape_and_are_caught() {
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             ((tblGet(ss, ipSrc(#1 p)), ss) handle NotFound => (0, ss))",
        );
        assert!(sum.channels[0].raises.is_empty());
        let (tp, sum) = summarize_src(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             (tblGet(ss, ipSrc(#1 p)), ss)",
        );
        let nf = tp.exn_id("NotFound").unwrap().0;
        assert_eq!(sum.channels[0].raises, BTreeSet::from([nf]));
    }

    #[test]
    fn wildcard_handle_catches_everything() {
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             ((ps div 0, ss) handle _ => (0, ss))",
        );
        assert!(sum.channels[0].raises.is_empty());
    }

    #[test]
    fn div_may_raise_unless_divisor_is_constant() {
        // Non-constant divisor: may raise.
        let (tp, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps div blobLen(#3 p), ss)",
        );
        let div = tp.exn_id("Div").unwrap().0;
        assert!(sum.channels[0].raises.contains(&div));
        // Constant nonzero divisor: provably safe.
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is (ps div 2, ss)",
        );
        assert!(sum.channels[0].raises.is_empty());
    }

    #[test]
    fn function_sends_inlined() {
        let (_, sum) = summarize_src(
            "channel relay(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(relay, p); OnRemote(relay, p); (ps, ss))",
        );
        // find the network channel summary (index 1)
        let s = &sum.channels[1];
        assert_eq!(s.sites.len(), 2);
        assert_eq!(s.min_out, 2);
    }

    #[test]
    fn multicast_constant_detected() {
        let d = DestAbs::Const((224u32 << 24) | 5);
        assert!(d.is_multicast_const());
        assert!(!DestAbs::Const(10 << 24).is_multicast_const());
    }

    #[test]
    fn src_rewrite_defeats_orig_src_tracking() {
        // After ipSrcSet, ipSrc no longer returns the original source —
        // the abstraction must not claim OrigSrc.
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
             let val iph2 : ip = ipSrcSet(#1 p, 10.0.0.9) in
               (OnRemote(network, (ipDestSet(iph2, ipSrc(iph2)), #2 p, #3 p)); (ps, ss))
             end",
        );
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Unknown);
    }

    #[test]
    fn src_rewrite_preserves_dest_tracking() {
        // ipSrcSet does not touch the destination: still a progress send.
        let (_, sum) = summarize_src(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
             (OnRemote(network, (ipSrcSet(#1 p, 10.0.0.9), #2 p, #3 p)); (ps, ss))",
        );
        assert!(sum.channels[0].sites[0].is_progress());
    }

    #[test]
    fn branch_join_of_packet_and_rebuilt_tuple_stays_tracked() {
        // `if c then p else (iph, udph, transformed)` — the audio router
        // shape — keeps the Unchanged classification through the join.
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is
             let val out : ip*udp*blob =
               if ps > 0 then p else (#1 p, #2 p, audio16to8(#3 p))
             in (OnRemote(network, out); (ps, ss)) end",
        );
        assert!(sum.channels[0].sites[0].is_progress());
    }

    #[test]
    fn branch_join_of_diverging_destinations_is_unknown() {
        let (_, sum) = summarize_src(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is
             let val out : ip*udp*blob =
               if ps > 0 then (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)
               else (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)
             in (OnRemote(network, out); (ps, ss)) end",
        );
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Unknown);
    }

    #[test]
    fn sends_inside_functions_have_unknown_destinations() {
        // Function parameters are opaque, so a destination-changing send
        // inside a function cannot be tracked — conservative Unknown.
        let (_, sum) = summarize_src(
            "channel sink(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
             fun fwd(q : ip*udp*blob) : unit = OnRemote(sink, q)
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is
             (fwd(p); (ps, ss))",
        );
        let s = &sum.channels[1];
        assert_eq!(s.sites.len(), 1);
        assert_eq!(s.sites[0].dest, DestAbs::Unknown);
    }

    #[test]
    fn a_packet_in_a_function_parameter_is_not_the_arriving_packet() {
        // Slot 2 is the packet parameter of a *channel*; in a function
        // it is an ordinary (opaque) parameter, whatever its type.
        let (_, sum) = summarize_src(
            "fun f(a : int, b : int, q : ip*udp*blob) : unit = OnRemote(network, q)
             channel network(ps : int, ss : unit, p : ip*udp*blob) is
             (f(ps, ps, p); (ps, ss))",
        );
        assert_eq!(sum.funs[0].sites[0].dest, DestAbs::Unknown);
        assert_eq!(sum.channels[0].sites[0].dest, DestAbs::Unknown);
        assert_eq!(sum.duplication.may_copy, vec![false]);
    }

    #[test]
    fn multicast_rebuilt_from_a_function_parameter_still_copies() {
        let (tp, sum) = summarize_src(
            "fun mc(a : int, b : int, q : ip*udp*blob) : unit =
               OnRemote(network, (ipDestSet(#1 q, 224.0.0.5), #2 q, #3 q))
             channel network(ps : int, ss : unit, p : ip*udp*blob) is
             (mc(ps, ps, p); mc(ps, ps, p); (ps, ss))",
        );
        assert!(sum.funs[0].sites[0].dest.is_multicast_const());
        assert_eq!(sum.duplication.may_copy, vec![true]);
        assert!(!crate::duplication::check_duplication(&tp, &sum).is_proved());
    }

    #[test]
    fn on_neighbor_dest_abstraction() {
        let (_, sum) = summarize_src(
            "channel mon(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
             channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(mon, 10.0.0.3, p); (ps, ss))",
        );
        let s = &sum.channels[1];
        assert_eq!(s.sites[0].kind, SendKind::Neighbor);
        assert!(matches!(s.sites[0].dest, DestAbs::Const(_)));
        assert!(!s.sites[0].is_progress());
    }
}
