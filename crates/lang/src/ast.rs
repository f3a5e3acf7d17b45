//! Untyped abstract syntax produced by the parser.

use crate::span::Span;
use crate::types::Type;
use std::rc::Rc;

/// An identifier. The parser makes one handle per distinct spelling in a
/// program and every occurrence shares it, so a copy is a count
/// increment and two names of one program are the same name exactly
/// when they are the same handle.
pub type Name = Rc<str>;

/// A parsed PLAN-P program: an ordered sequence of top-level declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Declarations in source order. Order matters: `val` and `fun` names
    /// are only visible to later declarations (this is what rules out
    /// recursion), while `channel` names are visible program-wide.
    pub decls: Vec<Decl>,
}

impl Program {
    /// Iterates over the channel declarations in source order.
    pub fn channels(&self) -> impl Iterator<Item = &ChannelDecl> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Channel(c) => Some(c),
            _ => None,
        })
    }
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `val name : ty = expr`
    Val(ValDecl),
    /// `fun name(params) : ret = body`
    Fun(FunDecl),
    /// `exception Name`
    Exception(ExnDecl),
    /// `proto expr` — initial protocol state (our documented extension; when
    /// absent the protocol state is default-initialized from its type).
    Proto(ProtoDecl),
    /// `channel name(ps, ss, p) [initstate e] is body`
    Channel(ChannelDecl),
}

impl Decl {
    /// The span of the whole declaration.
    pub fn span(&self) -> Span {
        match self {
            Decl::Val(d) => d.span,
            Decl::Fun(d) => d.span,
            Decl::Exception(d) => d.span,
            Decl::Proto(d) => d.span,
            Decl::Channel(d) => d.span,
        }
    }
}

/// `val name : ty = init`
#[derive(Debug, Clone, PartialEq)]
pub struct ValDecl {
    /// Bound name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
    /// Initializer (must be evaluable at load time; checked by the type
    /// checker to be effect-free).
    pub init: Expr,
    /// Whole-declaration span.
    pub span: Span,
}

/// `fun name(x1 : t1, …) : ret = body`
#[derive(Debug, Clone, PartialEq)]
pub struct FunDecl {
    /// Function name.
    pub name: Name,
    /// Parameters with declared types.
    pub params: Vec<(Name, Type)>,
    /// Declared return type.
    pub ret: Type,
    /// Function body.
    pub body: Expr,
    /// Whole-declaration span.
    pub span: Span,
}

/// `exception Name`
#[derive(Debug, Clone, PartialEq)]
pub struct ExnDecl {
    /// Exception name.
    pub name: Name,
    /// Whole-declaration span.
    pub span: Span,
}

/// `proto expr`
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoDecl {
    /// Initial protocol-state expression.
    pub init: Expr,
    /// Whole-declaration span.
    pub span: Span,
}

/// A channel definition.
///
/// Channels sharing one name are *overloaded* (section 2.3 of the paper):
/// dispatch tries each overload in declaration order and runs the first
/// whose packet type matches the arriving packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelDecl {
    /// Channel name; `network` is distinguished (matches untagged traffic).
    pub name: Name,
    /// Protocol-state parameter `(name, type)` — shared across channels.
    pub ps: (Name, Type),
    /// Channel-state parameter `(name, type)` — local to this overload.
    pub ss: (Name, Type),
    /// Packet parameter `(name, type)`; the type selects which packets the
    /// channel applies to.
    pub pkt: (Name, Type),
    /// Optional initial channel state (`initstate e`); required unless the
    /// state type is defaultable.
    pub initstate: Option<Expr>,
    /// The channel body; must evaluate to `(ps', ss')`.
    pub body: Expr,
    /// Whole-declaration span.
    pub span: Span,
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Convenience constructor.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Character literal.
    Char(char),
    /// Unit literal `()`.
    Unit,
    /// Host literal `a.b.c.d`.
    Host(u32),
    /// Variable reference.
    Var(Name),
    /// Tuple construction `(e1, e2, …)` (at least two components).
    Tuple(Vec<Expr>),
    /// Tuple projection `#n e` (1-based).
    Proj(u32, Box<Expr>),
    /// Call of a user function or primitive: `f(args)`.
    Call(Name, Vec<Expr>),
    /// `if c then t else e`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let val x : t = e … in body end`
    Let(Vec<LetBind>, Box<Expr>),
    /// Sequencing `(e1; e2; …)` — value of the last expression.
    Seq(Vec<Expr>),
    /// Binary operator application.
    Binop(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operator application.
    Unop(UnOp, Box<Expr>),
    /// `raise Exn`
    Raise(Name),
    /// `e handle pat => h`
    Handle(Box<Expr>, ExnPat, Box<Expr>),
    /// List literal `[e1, e2, …]`.
    List(Vec<Expr>),
    /// `OnRemote(chan, pkt)` — re-send `pkt` into the network toward its IP
    /// destination, to be processed by channel `chan` at the next PLAN-P
    /// node (and delivered on arrival).
    OnRemote(Name, Box<Expr>),
    /// `OnNeighbor(chan, host, pkt)` — send `pkt` directly to a neighboring
    /// `host` for processing by channel `chan` there.
    OnNeighbor(Name, Box<Expr>, Box<Expr>),
}

/// One `val x : t = e` binding inside a `let`.
#[derive(Debug, Clone, PartialEq)]
pub struct LetBind {
    /// Bound name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
    /// Initializer.
    pub init: Expr,
    /// Span of the binding.
    pub span: Span,
}

/// The pattern of a `handle` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExnPat {
    /// `handle Name => …` — catches exactly that exception.
    Name(Name),
    /// `handle _ => …` — catches every exception.
    Wild,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div` (truncating; raises `Div` on zero)
    Div,
    /// `mod` (raises `Div` on zero)
    Mod,
    /// `^` string concatenation
    Concat,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `andalso` (short-circuit)
    And,
    /// `orelse` (short-circuit)
    Or,
}

impl BinOp {
    /// The surface spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
            BinOp::Concat => "^",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "andalso",
            BinOp::Or => "orelse",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `not`
    Not,
    /// Unary minus.
    Neg,
}

impl UnOp {
    /// The surface spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "-",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_channels_filters() {
        let ch = ChannelDecl {
            name: "network".into(),
            ps: ("ps".into(), Type::Unit),
            ss: ("ss".into(), Type::Unit),
            pkt: (
                "p".into(),
                Type::Tuple([Type::Ip, Type::Tcp, Type::Blob].into()),
            ),
            initstate: None,
            body: Expr::new(ExprKind::Unit, Span::dummy()),
            span: Span::dummy(),
        };
        let prog = Program {
            decls: vec![
                Decl::Exception(ExnDecl {
                    name: "E".into(),
                    span: Span::dummy(),
                }),
                Decl::Channel(ch.clone()),
            ],
        };
        assert_eq!(prog.channels().count(), 1);
        assert_eq!(&*prog.channels().next().unwrap().name, "network");
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(BinOp::Ne.symbol(), "<>");
        assert_eq!(UnOp::Not.symbol(), "not");
    }
}
