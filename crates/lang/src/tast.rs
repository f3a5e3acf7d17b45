//! Typed abstract syntax — the output of the type checker and the input to
//! the safety analyses, the portable interpreter, and the JIT specializer.
//!
//! Compared with the untyped AST, every expression carries its [`Type`],
//! variable references are resolved to local slots or global indices,
//! calls are resolved to user functions or [`PrimId`]s, multi-binding
//! `let`s are desugared into nested single bindings, and `OnRemote`
//! targets are resolved to a specific channel overload.

use crate::ast::{BinOp, Name, UnOp};
use crate::prims::PrimId;
use crate::span::Span;
use crate::types::{PacketShape, Type};

/// Identifies an exception: an index into [`TProgram::exns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExnId(pub u32);

/// A fully type-checked program.
#[derive(Debug, Clone)]
pub struct TProgram {
    /// `val` globals in declaration order.
    pub globals: Vec<TGlobal>,
    /// `fun` definitions in declaration order (bodies may call only earlier
    /// functions, which is what guarantees local termination).
    pub funs: Vec<TFun>,
    /// Exception names; predeclared exceptions first, then user
    /// declarations. Index = [`ExnId`].
    pub exns: Vec<Name>,
    /// The protocol-state type shared by all channels.
    pub proto_ty: Type,
    /// Initial protocol state; `None` means default-initialize from
    /// `proto_ty`.
    pub proto_init: Option<TExpr>,
    /// Channel overload instances in declaration order.
    pub channels: Vec<TChannel>,
    /// Channel name → indices into `channels`, in declaration order.
    #[allow(clippy::disallowed_types)] // lookup-only: `get`/index by name, never iterated
    pub chan_groups: std::collections::HashMap<Name, Vec<usize>>,
}

impl TProgram {
    /// Returns the channel at `index`.
    pub fn channel(&self, index: usize) -> &TChannel {
        &self.channels[index]
    }

    /// Resolves an exception name to its id.
    pub fn exn_id(&self, name: &str) -> Option<ExnId> {
        self.exns
            .iter()
            .position(|n| &**n == name)
            .map(|i| ExnId(i as u32))
    }
}

/// A `val` global.
#[derive(Debug, Clone)]
pub struct TGlobal {
    /// Name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
    /// Load-time initializer (pure).
    pub init: TExpr,
    /// Source span of the declaration.
    pub span: Span,
}

/// A `fun` definition.
#[derive(Debug, Clone)]
pub struct TFun {
    /// Name.
    pub name: Name,
    /// Parameter names and types; parameters occupy local slots `0..n`.
    pub params: Vec<(Name, Type)>,
    /// Declared return type.
    pub ret: Type,
    /// Body.
    pub body: TExpr,
    /// Total number of local slots the body needs (params + lets).
    pub nlocals: u32,
    /// Source span of the declaration.
    pub span: Span,
}

/// One channel overload instance.
#[derive(Debug, Clone)]
pub struct TChannel {
    /// Channel name (`network` matches untagged traffic).
    pub name: Name,
    /// Index of this overload within its name group (declaration order).
    pub overload: u32,
    /// Protocol-state parameter name (slot 0).
    pub ps_name: Name,
    /// Channel-state parameter name (slot 1).
    pub ss_name: Name,
    /// Packet parameter name (slot 2).
    pub pkt_name: Name,
    /// Channel-state type.
    pub ss_ty: Type,
    /// Packet type this overload matches.
    pub pkt_ty: Type,
    /// Decomposition of `pkt_ty` (validated by the checker).
    pub shape: PacketShape,
    /// Initial channel state; `None` means default-initialize from `ss_ty`.
    pub initstate: Option<TExpr>,
    /// Body; evaluates to `(ps', ss')`.
    pub body: TExpr,
    /// Total number of local slots the body needs (3 params + lets).
    pub nlocals: u32,
    /// Source span of the declaration.
    pub span: Span,
}

/// A typed expression.
#[derive(Debug, Clone)]
pub struct TExpr {
    /// The expression form.
    pub kind: TExprKind,
    /// The expression's type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// Typed expression forms.
#[derive(Debug, Clone)]
pub enum TExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Character literal.
    Char(char),
    /// Unit literal.
    Unit,
    /// Host literal.
    Host(u32),
    /// Local variable (parameter or `let` binding).
    Local {
        /// Surface name (used by the portable interpreter's named lookup).
        name: Name,
        /// Pre-resolved frame slot (used by the JIT).
        slot: u32,
    },
    /// `val` global.
    Global {
        /// Surface name.
        name: Name,
        /// Index into [`TProgram::globals`].
        index: u32,
    },
    /// Tuple construction.
    Tuple(Vec<TExpr>),
    /// Tuple projection; `index` is 0-based here (surface syntax is 1-based).
    Proj(u32, Box<TExpr>),
    /// Call of a user function.
    CallFun {
        /// Index into [`TProgram::funs`].
        index: u32,
        /// Arguments.
        args: Vec<TExpr>,
    },
    /// Call of a primitive.
    CallPrim {
        /// Which primitive.
        prim: PrimId,
        /// Arguments.
        args: Vec<TExpr>,
    },
    /// Conditional.
    If(Box<TExpr>, Box<TExpr>, Box<TExpr>),
    /// Single `let` binding (multi-binding lets are desugared to nesting).
    Let {
        /// Bound name.
        name: Name,
        /// Frame slot.
        slot: u32,
        /// Initializer.
        init: Box<TExpr>,
        /// Body.
        body: Box<TExpr>,
    },
    /// Sequencing; value of the last expression.
    Seq(Vec<TExpr>),
    /// Binary operation.
    Binop(BinOp, Box<TExpr>, Box<TExpr>),
    /// Unary operation.
    Unop(UnOp, Box<TExpr>),
    /// `raise`.
    Raise(ExnId),
    /// `handle`; `None` pattern catches everything.
    Handle(Box<TExpr>, Option<ExnId>, Box<TExpr>),
    /// List literal.
    List(Vec<TExpr>),
    /// `OnRemote(chan, pkt)` resolved to a channel overload.
    OnRemote {
        /// Target channel name.
        chan: Name,
        /// Resolved overload index within the name group.
        overload: u32,
        /// Packet expression.
        pkt: Box<TExpr>,
    },
    /// `OnNeighbor(chan, host, pkt)` resolved to a channel overload.
    OnNeighbor {
        /// Target channel name.
        chan: Name,
        /// Resolved overload index within the name group.
        overload: u32,
        /// Destination neighbor.
        host: Box<TExpr>,
        /// Packet expression.
        pkt: Box<TExpr>,
    },
}

impl TExpr {
    /// The direct subexpressions, in evaluation order (`init` before
    /// `body`, `host` before `pkt`). The one enumeration of
    /// [`TExprKind`]'s shape for read-only traversals: anything that does
    /// not give a form its own meaning iterates this.
    pub fn children(&self) -> impl Iterator<Item = &TExpr> {
        use TExprKind::*;
        let (items, boxed): (&[TExpr], [Option<&TExpr>; 3]) = match &self.kind {
            Int(_)
            | Bool(_)
            | Str(_)
            | Char(_)
            | Unit
            | Host(_)
            | Local { .. }
            | Global { .. }
            | Raise(_) => (&[], [None; 3]),
            Tuple(items)
            | Seq(items)
            | List(items)
            | CallFun { args: items, .. }
            | CallPrim { args: items, .. } => (items, [None; 3]),
            Proj(_, a) | Unop(_, a) | OnRemote { pkt: a, .. } => (&[], [Some(a), None, None]),
            Let {
                init: a, body: b, ..
            }
            | Binop(_, a, b)
            | Handle(a, _, b)
            | OnNeighbor {
                host: a, pkt: b, ..
            } => (&[], [Some(a), Some(b), None]),
            If(c, t, f) => (&[], [Some(c), Some(t), Some(f)]),
        };
        // Every analysis's inner loop: `chain(..).flatten()` here measured
        // `cost_bounds` over the corpus at 21 us against 13 us for this.
        let (mut items, mut boxed) = (items.iter(), boxed.into_iter());
        std::iter::from_fn(move || items.next().or_else(|| boxed.next().flatten()))
    }

    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TExpr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One program text that uses all 22 expression forms.
    const ALL_FORMS: &str = "val g : int = 4
exception Boom
fun inc(x : int) : int = x + 1
channel mon(ps : int, ss : unit, p : ip*udp*blob) is (ps, ss)
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val n : int = inc(g) in
    (OnNeighbor(mon, 10.0.0.3, p);
     OnRemote(network, p);
     println(\"s\");
     [strChar(\"ab\", 0), #\"c\"];
     ();
     (if not true then -n else raise Boom) handle Boom => udpDst(#2 p);
     (n, ss))
  end";

    fn form(k: &TExprKind) -> &'static str {
        use TExprKind::*;
        match k {
            Int(_) => "int",
            Bool(_) => "bool",
            Str(_) => "str",
            Char(_) => "char",
            Unit => "unit",
            Host(_) => "host",
            Local { .. } => "local",
            Global { .. } => "global",
            Tuple(_) => "tuple",
            Proj(..) => "proj",
            CallFun { .. } => "callfun",
            CallPrim { .. } => "callprim",
            If(..) => "if",
            Let { .. } => "let",
            Seq(_) => "seq",
            Binop(..) => "binop",
            Unop(..) => "unop",
            Raise(_) => "raise",
            Handle(..) => "handle",
            List(_) => "list",
            OnRemote { .. } => "onremote",
            OnNeighbor { .. } => "onneighbor",
        }
    }

    /// The children written out form by form: the oracle `children()` is
    /// held to, node for node and in order.
    fn expected_children(e: &TExpr) -> Vec<&TExpr> {
        use TExprKind::*;
        match &e.kind {
            Int(_)
            | Bool(_)
            | Str(_)
            | Char(_)
            | Unit
            | Host(_)
            | Local { .. }
            | Global { .. }
            | Raise(_) => vec![],
            Tuple(items) | Seq(items) | List(items) => items.iter().collect(),
            CallFun { args, .. } | CallPrim { args, .. } => args.iter().collect(),
            Proj(_, a) | Unop(_, a) => vec![a],
            If(c, t, f) => vec![c, t, f],
            Let { init, body, .. } => vec![init, body],
            Binop(_, a, b) => vec![a, b],
            Handle(body, _, handler) => vec![body, handler],
            OnRemote { pkt, .. } => vec![pkt],
            OnNeighbor { host, pkt, .. } => vec![host, pkt],
        }
    }

    #[test]
    fn children_of_every_form_in_evaluation_order() {
        let tp = crate::compile_front(ALL_FORMS).unwrap();
        let roots = [
            &tp.globals[0].init,
            &tp.funs[0].body,
            &tp.channels[0].body,
            &tp.channels[1].body,
        ];
        let mut forms = std::collections::BTreeSet::new();
        for root in roots {
            let (mut nodes, mut edges) = (0, 0);
            root.walk(&mut |e| {
                nodes += 1;
                let name = form(&e.kind);
                forms.insert(name);
                let got: Vec<&TExpr> = e.children().collect();
                let want = expected_children(e);
                assert_eq!(got.len(), want.len(), "{name}: child count");
                for (g, w) in got.iter().zip(&want) {
                    assert!(std::ptr::eq(*g, *w), "{name}: child order");
                }
                edges += got.len();
                // Source order is evaluation order for these forms.
                if matches!(name, "onneighbor" | "let" | "if" | "handle" | "binop") {
                    let starts: Vec<u32> = got.iter().map(|c| c.span.start).collect();
                    assert!(starts.windows(2).all(|w| w[0] < w[1]), "{name}: {starts:?}");
                }
            });
            assert_eq!(nodes, 1 + edges, "walk visits each child exactly once");
        }
        assert_eq!(forms.len(), 22, "forms exercised: {forms:?}");
    }
}
