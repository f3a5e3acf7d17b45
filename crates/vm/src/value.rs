//! Run-time values of PLAN-P programs.

use crate::pkthdr::{addr_to_string, IpHdr, TcpHdr, UdpHdr};
use bytes::Bytes;
use planp_lang::tast::ExnId;
use planp_lang::types::Type;
use std::cell::RefCell;
use std::collections::HashMap;
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

/// Shared, mutable hash table used for channel and protocol state.
pub type TableRef = Rc<RefCell<HashMap<Key, Value>>>;

/// Creates an empty state table.
pub fn new_table(capacity: usize) -> TableRef {
    Rc::new(RefCell::new(HashMap::with_capacity(capacity)))
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
}

/// A table key: a value restricted (by the type checker) to equality
/// types, wrapped so it can implement `Hash`/`Eq`.
#[derive(Debug, Clone)]
pub struct Key(pub Value);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.struct_eq(&other.0).unwrap_or(false)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state);
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
        let t = Type::Tuple(vec![Type::Int, Type::Bool]);
        let Value::Tuple(items) = Value::default_of(&t) else {
            panic!()
        };
        assert_eq!(items.len(), 2);
        assert!(matches!(
            Value::default_of(&Type::Table(Box::new(Type::Int), Box::new(Type::Int))),
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

    #[test]
    #[allow(clippy::mutable_key_type)] // keys are equality types; tables never nest as keys
    fn keys_hash_and_compare_structurally() {
        let mut map: HashMap<Key, i32> = HashMap::new();
        let k1 = Key(Value::tuple(vec![Value::Host(7), Value::Int(80)]));
        let k2 = Key(Value::tuple(vec![Value::Host(7), Value::Int(80)]));
        map.insert(k1, 1);
        assert_eq!(map.get(&k2), Some(&1));
        let k3 = Key(Value::tuple(vec![Value::Host(8), Value::Int(80)]));
        assert_eq!(map.get(&k3), None);
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
