//! Run-time values of PLAN-P programs.

use crate::pkthdr::{addr_to_string, IpHdr, TcpHdr, UdpHdr};
use crate::table::{new_table, TableRef};
use bytes::Bytes;
use planp_lang::tast::ExnId;
use planp_lang::types::Type;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// A PLAN-P run-time value.
///
/// Values are cheap to clone: compound values share their backing storage
/// (`Rc`/[`Bytes`]), matching the language's immutable data semantics.
/// The only mutable value is [`Value::Table`], which implements the
/// channel/protocol state tables.
#[derive(Debug, Clone)]
pub enum Value {
    /// `int`
    Int(i64),
    /// `bool`
    Bool(bool),
    /// `char`
    Char(char),
    /// `unit`
    Unit,
    /// `host`
    Host(u32),
    /// `string`
    Str(Rc<str>),
    /// `blob`
    Blob(Bytes),
    /// Product value.
    Tuple(Rc<[Value]>),
    /// List value.
    List(Rc<Vec<Value>>),
    /// Mutable hash table (state).
    Table(TableRef),
    /// `ip` header.
    Ip(IpHdr),
    /// `tcp` header.
    Tcp(TcpHdr),
    /// `udp` header.
    Udp(UdpHdr),
}

// A register, a tuple slot, a table key and a table entry are each one
// of these: 8 bytes of discriminant and the 24-byte `Bytes` of a blob
// (40 while `Bytes` kept `usize` offsets). The bytecode engine moves
// them by value on every load, store and send.
const _: () = assert!(std::mem::size_of::<Value>() <= 32);

impl PartialEq for Value {
    /// Structural equality where the language defines it; headers compare
    /// by fields and tables by identity (sharing), mirroring run-time
    /// behavior closely enough for assertions and collections.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Table(a), Table(b)) => Rc::ptr_eq(a, b),
            (Ip(a), Ip(b)) => a == b,
            (Tcp(a), Tcp(b)) => a == b,
            (Udp(a), Udp(b)) => a == b,
            (Tuple(a), Tuple(b)) => a == b,
            (List(a), List(b)) => a == b,
            _ => self.struct_eq(other).unwrap_or(false),
        }
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// Builds a tuple value.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(items.into())
    }

    /// The canonical default value of a defaultable type, used to
    /// initialize states without `initstate`/`proto` declarations.
    ///
    /// # Panics
    ///
    /// Panics on non-defaultable types (`ip`, `tcp`, `udp`), which the
    /// type checker excludes.
    pub fn default_of(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::str(""),
            Type::Char => Value::Char('\0'),
            Type::Unit => Value::Unit,
            Type::Host => Value::Host(0),
            Type::Blob => Value::Blob(Bytes::new()),
            Type::Tuple(parts) => Value::tuple(parts.iter().map(Value::default_of).collect()),
            Type::List(_) => Value::List(Rc::new(Vec::new())),
            Type::Table(..) => Value::Table(new_table(16)),
            Type::Ip | Type::Tcp | Type::Udp => {
                panic!("type {ty} has no default value (checked by the front end)")
            }
        }
    }

    /// Structural equality for equality types. Headers and tables are not
    /// equality types; comparing them is a [`VmError::Trap`] at the call
    /// sites that can observe it (the type checker rules it out).
    pub fn struct_eq(&self, other: &Value) -> Option<bool> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a == b),
            (Bool(a), Bool(b)) => Some(a == b),
            (Char(a), Char(b)) => Some(a == b),
            (Unit, Unit) => Some(true),
            (Host(a), Host(b)) => Some(a == b),
            (Str(a), Str(b)) => Some(a == b),
            (Blob(a), Blob(b)) => Some(a == b),
            (Tuple(a), Tuple(b)) => {
                if a.len() != b.len() {
                    return Some(false);
                }
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.struct_eq(y) {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Some(true)
            }
            (List(a), List(b)) => {
                if a.len() != b.len() {
                    return Some(false);
                }
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.struct_eq(y) {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Some(true)
            }
            _ => None,
        }
    }

    /// Renders the value the way `print` does.
    pub fn display(&self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Char(c) => c.to_string(),
            Value::Unit => "()".to_string(),
            Value::Host(a) => addr_to_string(*a),
            Value::Str(s) => s.to_string(),
            Value::Blob(b) => format!("<blob:{} bytes>", b.len()),
            Value::Tuple(items) => {
                let parts: Vec<String> = items.iter().map(Value::display).collect();
                format!("({})", parts.join(", "))
            }
            Value::List(items) => {
                let parts: Vec<String> = items.iter().map(Value::display).collect();
                format!("[{}]", parts.join(", "))
            }
            Value::Table(t) => format!("<table:{} entries>", t.borrow().len()),
            Value::Ip(h) => format!(
                "<ip {} -> {} ttl={}>",
                addr_to_string(h.src),
                addr_to_string(h.dst),
                h.ttl
            ),
            Value::Tcp(h) => format!("<tcp {}:{}>", h.sport, h.dport),
            Value::Udp(h) => format!("<udp {}:{}>", h.sport, h.dport),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

/// The types whose values are one machine word — `int`, `bool`, `char`
/// and `host`. Where the checker gave both operands of an operator one
/// of these, the bytecode engine reads them as plain `i64`s (a `bool`
/// as 0 or 1, a `char` as its code point) and never builds a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarTy {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `char`
    Char,
    /// `host`
    Host,
}

impl ScalarTy {
    /// The scalar class of `ty`, if it has one.
    pub fn of(ty: &Type) -> Option<ScalarTy> {
        match ty {
            Type::Int => Some(ScalarTy::Int),
            Type::Bool => Some(ScalarTy::Bool),
            Type::Char => Some(ScalarTy::Char),
            Type::Host => Some(ScalarTy::Host),
            _ => None,
        }
    }

    /// Unwraps a value of this type.
    ///
    /// # Errors
    ///
    /// Traps on a value of any other type (unreachable for checked
    /// programs).
    #[inline(always)]
    pub fn read(self, v: &Value) -> Result<i64, VmError> {
        match (self, v) {
            (ScalarTy::Int, Value::Int(n)) => Ok(*n),
            (ScalarTy::Bool, Value::Bool(b)) => Ok(i64::from(*b)),
            (ScalarTy::Char, Value::Char(c)) => Ok(i64::from(u32::from(*c))),
            (ScalarTy::Host, Value::Host(a)) => Ok(i64::from(*a)),
            _ => Err(self.confused(v)),
        }
    }

    #[cold]
    fn confused(self, v: &Value) -> VmError {
        VmError::trap(format!("expected {self:?}, got {v:?}"))
    }

    /// The value of this type whose word is `w`, as [`ScalarTy::word`]
    /// made it (a `char` that is no code point, which no word of one is,
    /// reads as `'\0'`).
    pub(crate) fn value(self, w: u64) -> Value {
        match self {
            ScalarTy::Int => Value::Int(w as i64),
            ScalarTy::Bool => Value::Bool(w != 0),
            ScalarTy::Char => Value::Char(char::from_u32(w as u32).unwrap_or_default()),
            ScalarTy::Host => Value::Host(w as u32),
        }
    }

    /// The scalar class of `v` and its word, as [`ScalarTy::read`]
    /// unwraps it.
    pub(crate) fn word(v: &Value) -> Option<(ScalarTy, u64)> {
        let ty = match v {
            Value::Int(_) => ScalarTy::Int,
            Value::Bool(_) => ScalarTy::Bool,
            Value::Char(_) => ScalarTy::Char,
            Value::Host(_) => ScalarTy::Host,
            _ => return None,
        };
        Some((ty, ty.read(v).ok()? as u64))
    }
}

/// A table key. A scalar, or a tuple of at most three scalars, is held
/// inline: one word per component, [`ScalarTy::read`]'s unwrapping, and
/// the types in a [`KeyShape`]. It compares as words and hashes as one
/// `write_u64` per component, and building one from registers (the
/// bytecode engine's table instructions) or from a value ([`Key::of`])
/// allocates nothing. Anything else — strings, blobs, `unit`, lists,
/// longer or nested tuples — is boxed: the value itself, compared by
/// [`Value::struct_eq`].
///
/// [`Key::of`] is the one way from a value to a key, so a value always
/// gets the same variant and two keys are equal exactly when their
/// values are.
#[derive(Debug, Clone)]
pub enum Key {
    /// The components' words; those past the shape's length are 0.
    Inline(KeyShape, [u64; 3]),
    /// Any key that is not held inline.
    Boxed(Value),
}

/// What an inline [`Key`] is: a bare scalar, or a tuple of two or three
/// scalars, and the type of each component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyShape {
    /// 0 for a bare scalar, else the tuple's arity.
    arity: u8,
    /// Component types; those past the length are `Int`.
    tys: [ScalarTy; 3],
}

impl KeyShape {
    const SCALAR: KeyShape = KeyShape {
        arity: 0,
        tys: [ScalarTy::Int; 3],
    };

    /// The shape of the keys of type `ty`, if they are held inline.
    pub fn of(ty: &Type) -> Option<KeyShape> {
        let mut shape = KeyShape::SCALAR;
        let parts = match ty {
            Type::Tuple(parts) if (1..=3).contains(&parts.len()) => {
                shape.arity = parts.len() as u8;
                &parts[..]
            }
            _ => std::slice::from_ref(ty),
        };
        for (t, part) in shape.tys.iter_mut().zip(parts) {
            *t = ScalarTy::of(part)?;
        }
        Some(shape)
    }

    /// True for a tuple, false for a bare scalar.
    pub(crate) fn is_tuple(self) -> bool {
        self.arity > 0
    }

    /// The component types, in order.
    pub fn tys(&self) -> &[ScalarTy] {
        &self.tys[..usize::from(self.arity.max(1))]
    }
}

impl Key {
    /// The key of `v`: inline where `v` has an inline shape (nothing
    /// allocated, nothing shared), boxed otherwise (an `Rc` shared).
    pub fn of(v: &Value) -> Key {
        Key::inline(v).unwrap_or_else(|| Key::Boxed(v.clone()))
    }

    fn inline(v: &Value) -> Option<Key> {
        let mut shape = KeyShape::SCALAR;
        let mut words = [0; 3];
        let items = match v {
            Value::Tuple(items) if (1..=3).contains(&items.len()) => {
                shape.arity = items.len() as u8;
                &items[..]
            }
            _ => std::slice::from_ref(v),
        };
        for (i, item) in items.iter().enumerate() {
            (shape.tys[i], words[i]) = ScalarTy::word(item)?;
        }
        Some(Key::Inline(shape, words))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Key::Inline(s, a), Key::Inline(t, b)) => s == t && a == b,
            (Key::Boxed(a), Key::Boxed(b)) => a.struct_eq(b).unwrap_or(false),
            _ => false,
        }
    }
}

impl Eq for Key {}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Inline(shape, words) => {
                for &w in &words[..shape.tys().len()] {
                    state.write_u64(w);
                }
            }
            Key::Boxed(v) => hash_value(v, state),
        }
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    use Value::*;
    match v {
        Int(n) => {
            0u8.hash(state);
            n.hash(state);
        }
        Bool(b) => {
            1u8.hash(state);
            b.hash(state);
        }
        Char(c) => {
            2u8.hash(state);
            c.hash(state);
        }
        Unit => 3u8.hash(state),
        Host(a) => {
            4u8.hash(state);
            a.hash(state);
        }
        Str(s) => {
            5u8.hash(state);
            s.hash(state);
        }
        Blob(b) => {
            6u8.hash(state);
            b.hash(state);
        }
        Tuple(items) => {
            7u8.hash(state);
            items.len().hash(state);
            for i in items.iter() {
                hash_value(i, state);
            }
        }
        List(items) => {
            8u8.hash(state);
            items.len().hash(state);
            for i in items.iter() {
                hash_value(i, state);
            }
        }
        // Not equality types; the checker prevents their use as keys.
        Table(_) | Ip(_) | Tcp(_) | Udp(_) => 9u8.hash(state),
    }
}

/// Errors produced while evaluating PLAN-P code.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A PLAN-P exception (catchable by `handle`).
    Exn(ExnId),
    /// An internal invariant violation — unreachable for programs that
    /// passed the type checker; surfaced rather than panicking so a
    /// router never crashes on a hostile program.
    Trap(String),
}

impl VmError {
    /// Constructs a trap.
    pub fn trap(msg: impl Into<String>) -> Self {
        VmError::Trap(msg.into())
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Exn(id) => write!(f, "uncaught exception #{}", id.0),
            VmError::Trap(m) => write!(f, "vm trap: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

/// [`ExnId`]s of the predeclared exceptions, fixed by their position in
/// [`planp_lang::prims::PREDECLARED_EXNS`].
pub mod exn {
    use planp_lang::tast::ExnId;

    /// `NotFound` — table lookup miss.
    pub const NOT_FOUND: ExnId = ExnId(0);
    /// `OutOfRange` — index/bounds failures.
    pub const OUT_OF_RANGE: ExnId = ExnId(1);
    /// `Format` — string/number conversion failures.
    pub const FORMAT: ExnId = ExnId(2);
    /// `Div` — division by zero.
    pub const DIV: ExnId = ExnId(3);
    /// `Empty` — empty-collection access.
    pub const EMPTY: ExnId = ExnId(4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::{Seedless, SplitMix64};
    use std::hash::BuildHasher;

    #[test]
    fn predeclared_exn_ids_match_lang_table() {
        use planp_lang::prims::PREDECLARED_EXNS;
        assert_eq!(PREDECLARED_EXNS[exn::NOT_FOUND.0 as usize], "NotFound");
        assert_eq!(PREDECLARED_EXNS[exn::OUT_OF_RANGE.0 as usize], "OutOfRange");
        assert_eq!(PREDECLARED_EXNS[exn::FORMAT.0 as usize], "Format");
        assert_eq!(PREDECLARED_EXNS[exn::DIV.0 as usize], "Div");
        assert_eq!(PREDECLARED_EXNS[exn::EMPTY.0 as usize], "Empty");
    }

    #[test]
    fn default_values() {
        assert!(matches!(Value::default_of(&Type::Int), Value::Int(0)));
        let t = Type::Tuple([Type::Int, Type::Bool].into());
        let Value::Tuple(items) = Value::default_of(&t) else {
            panic!()
        };
        assert_eq!(items.len(), 2);
        assert!(matches!(
            Value::default_of(&Type::Table(Type::Int.into(), Type::Int.into())),
            Value::Table(_)
        ));
    }

    #[test]
    #[should_panic(expected = "no default value")]
    fn default_of_header_panics() {
        let _ = Value::default_of(&Type::Ip);
    }

    #[test]
    fn struct_eq_on_equality_types() {
        assert_eq!(
            Value::tuple(vec![Value::Int(1), Value::str("a")])
                .struct_eq(&Value::tuple(vec![Value::Int(1), Value::str("a")])),
            Some(true)
        );
        assert_eq!(Value::Int(1).struct_eq(&Value::Int(2)), Some(false));
        assert_eq!(
            Value::Ip(IpHdr::new(0, 0, 6)).struct_eq(&Value::Ip(IpHdr::new(0, 0, 6))),
            None
        );
    }

    /// A value of an equality type, from small pools so that equal
    /// pairs are common: scalars whose words collide across types
    /// (`80`, `'P'`, host 80), strings, blobs, `unit`, and tuples of up
    /// to four items, nested.
    fn arb(rng: &mut SplitMix64, depth: u32) -> Value {
        let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
        match rng.next_below(if depth == 0 { 7 } else { 10 }) {
            0 => Value::Int([0, 1, 80, -1, i64::MIN][pick(rng, 5)]),
            1 => Value::Bool(rng.next_below(2) == 1),
            2 => Value::Char(['\0', '\u{1}', 'P'][pick(rng, 3)]),
            3 => Value::Host([0, 1, 80, u32::MAX][pick(rng, 4)]),
            4 => Value::Unit,
            5 => Value::str(["", "P", "GET"][pick(rng, 3)]),
            6 => Value::Blob(Bytes::from_static([&b""[..], b"P"][pick(rng, 2)])),
            _ => {
                let len = pick(rng, 5);
                Value::tuple((0..len).map(|_| arb(rng, depth - 1)).collect())
            }
        }
    }

    #[test]
    fn keys_are_equal_exactly_when_their_values_are_and_then_hash_equal() {
        let hash = |k: &Key| Seedless.hash_one(k);
        let check = |a: &Value, b: &Value| {
            let (ka, kb) = (Key::of(a), Key::of(b));
            let equal = a.struct_eq(b) == Some(true);
            assert_eq!(ka == kb, equal, "{a:?} vs {b:?}: {ka:?} vs {kb:?}");
            if equal {
                assert_eq!(hash(&ka), hash(&kb), "{a:?}");
            }
        };
        let mut rng = SplitMix64::new(26);
        let (mut equal, mut inline) = (0, 0);
        for _ in 0..20_000 {
            let depth = rng.next_below(3) as u32;
            let (a, b) = (arb(&mut rng, depth), arb(&mut rng, depth));
            check(&a, &b);
            check(&a, &a.clone());
            equal += u32::from(a.struct_eq(&b) == Some(true));
            inline += u32::from(matches!(Key::of(&a), Key::Inline(..)));
        }
        assert!(
            equal > 500 && inline > 5_000,
            "{equal} equal, {inline} inline"
        );

        // The edges, by name.
        let t = |items: &[Value]| Value::tuple(items.to_vec());
        let (h, n) = (Value::Host(7), Value::Int(80));
        let edges = [
            // A 3-tuple against the 4-tuple it begins: inline against boxed.
            (
                t(&[h.clone(), n.clone(), n.clone()]),
                t(&[h.clone(), n.clone(), n.clone(), n.clone()]),
            ),
            // A tuple holding a string is boxed, and still compares by value.
            (
                t(&[h.clone(), Value::str("a")]),
                t(&[h.clone(), Value::str("a")]),
            ),
            (
                t(&[h.clone(), Value::str("a")]),
                t(&[h.clone(), Value::str("b")]),
            ),
            // Equal words of different types differ.
            (Value::Int(7), Value::Host(7)),
            (Value::Int(80), Value::Char('P')),
            (Value::Int(1), Value::Bool(true)),
            (t(&[h.clone(), n.clone()]), t(&[Value::Int(7), n.clone()])),
            // A bare scalar is not the one-tuple of it.
            (n.clone(), t(std::slice::from_ref(&n))),
        ];
        for (a, b) in &edges {
            check(a, b);
            check(a, a);
        }
        assert!(matches!(Key::of(&edges[0].0), Key::Inline(..)));
        assert!(matches!(Key::of(&edges[0].1), Key::Boxed(_)));
        assert!(matches!(Key::of(&edges[1].0), Key::Boxed(_)));
        assert_ne!(Key::of(&edges[3].0), Key::of(&edges[3].1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Value::Host(crate::pkthdr::addr(10, 0, 0, 1)).display(),
            "10.0.0.1"
        );
        assert_eq!(
            Value::tuple(vec![Value::Int(1), Value::Bool(true)]).display(),
            "(1, true)"
        );
        assert_eq!(Value::List(Rc::new(vec![Value::Int(1)])).display(), "[1]");
    }
}
