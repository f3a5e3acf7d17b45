//! The PLAN-P type language.
//!
//! PLAN-P is monomorphic. Base types cover the network domain (`host`,
//! `blob`, and the protocol-header types `ip`, `tcp`, `udp`); compound types
//! are products, homogeneous lists, and hash tables.
//!
//! A compound type shares its components: cloning one — which the type
//! checker does for every typed node — is a reference-count increment,
//! not a copy of the tree. The components are `Arc`s, not `Rc`s, because
//! the primitive table that holds types is one process-wide value.

use std::fmt;
use std::sync::Arc;

/// A PLAN-P type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer (`int`).
    Int,
    /// Boolean (`bool`).
    Bool,
    /// Immutable string (`string`).
    Str,
    /// Character (`char`).
    Char,
    /// The unit type (`unit`), with sole value `()`.
    Unit,
    /// An IPv4 host address (`host`).
    Host,
    /// An uninterpreted byte payload (`blob`).
    Blob,
    /// An IP header (`ip`).
    Ip,
    /// A TCP header (`tcp`).
    Tcp,
    /// A UDP header (`udp`).
    Udp,
    /// A product type `t1 * t2 * …` (at least two components).
    Tuple(Arc<[Type]>),
    /// A homogeneous list `t list`.
    List(Arc<Type>),
    /// A hash table from keys of the first type to values of the second,
    /// written `(k, v) hash_table`.
    ///
    /// The paper's figure 2 writes `(int*host*host) hash_table`; we accept
    /// that product form as sugar for `((host*host), int) hash_table` —
    /// the *first* component is the stored value and the remaining
    /// components form the key, matching how `getSetS` uses the table.
    Table(Arc<Type>, Arc<Type>),
}

impl Type {
    /// Builds a product type, collapsing the degenerate cases.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn tuple(mut parts: Vec<Type>) -> Type {
        assert!(!parts.is_empty(), "tuple type needs at least one component");
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Type::Tuple(parts.into())
        }
    }

    /// True for types that support `=`/`<>` comparison and may be used as
    /// hash-table keys: everything except tables, headers, and functions
    /// (there are no function values).
    pub fn is_equality(&self) -> bool {
        match self {
            Type::Int
            | Type::Bool
            | Type::Str
            | Type::Char
            | Type::Unit
            | Type::Host
            | Type::Blob => true,
            Type::Tuple(parts) => parts.iter().all(Type::is_equality),
            Type::List(t) => t.is_equality(),
            Type::Ip | Type::Tcp | Type::Udp | Type::Table(..) => false,
        }
    }

    /// True for types with a total order (`<`, `<=`, …): `int`, `char`,
    /// `string`.
    pub(crate) fn is_ordered(&self) -> bool {
        matches!(self, Type::Int | Type::Char | Type::Str)
    }

    /// True for types that `print` can display.
    pub fn is_printable(&self) -> bool {
        match self {
            Type::Table(..) => false,
            Type::Tuple(parts) => parts.iter().all(Type::is_printable),
            Type::List(t) => t.is_printable(),
            _ => true,
        }
    }

    /// True if the type has a canonical default value, used to initialize
    /// protocol state when no `proto` declaration is given.
    pub fn is_defaultable(&self) -> bool {
        match self {
            Type::Int
            | Type::Bool
            | Type::Str
            | Type::Char
            | Type::Unit
            | Type::Host
            | Type::Blob => true,
            Type::Tuple(parts) => parts.iter().all(Type::is_defaultable),
            Type::List(_) | Type::Table(..) => true,
            Type::Ip | Type::Tcp | Type::Udp => false,
        }
    }

    /// Decomposes a channel packet type into (network layer, transport
    /// layer, payload component types).
    ///
    /// A valid packet type is a product `ip * tcp * rest…`, `ip * udp *
    /// rest…`, or `ip * rest…` where `rest` is either a single `blob` or a
    /// non-empty sequence of decodable scalar components (`int`, `bool`,
    /// `char`, `host`, `string`) optionally ending in a `blob`.
    pub fn packet_shape(&self) -> Option<PacketShape> {
        let Type::Tuple(parts) = self else {
            return None;
        };
        if parts.first() != Some(&Type::Ip) {
            return None;
        }
        let (transport, payload) = match parts.get(1) {
            Some(Type::Tcp) => (TransportKind::Tcp, &parts[2..]),
            Some(Type::Udp) => (TransportKind::Udp, &parts[2..]),
            Some(_) => (TransportKind::None, &parts[1..]),
            None => (TransportKind::None, &parts[1..]),
        };
        if payload.is_empty() {
            return None;
        }
        // Every payload component except the last must be a decodable
        // scalar; the last may also be a blob (the uninterpreted rest).
        for (i, t) in payload.iter().enumerate() {
            let last = i + 1 == payload.len();
            let ok = matches!(
                t,
                Type::Int | Type::Bool | Type::Char | Type::Host | Type::Str
            ) || (last && *t == Type::Blob);
            if !ok {
                return None;
            }
        }
        Some(PacketShape {
            transport,
            payload: payload.to_vec(),
        })
    }
}

/// The transport layer named by a packet type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// `ip*tcp*…`
    Tcp,
    /// `ip*udp*…`
    Udp,
    /// `ip*…` — raw IP, no transport header component.
    None,
}

/// The decomposition of a channel packet type; see [`Type::packet_shape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketShape {
    /// Which transport header the channel matches.
    pub transport: TransportKind,
    /// The payload component types (scalars, optionally ending in `blob`).
    pub payload: Vec<Type>,
}

impl PacketShape {
    /// Number of components of the packet tuple: the `ip` header, the
    /// transport header if the shape names one, and the payload parts.
    pub fn components(&self) -> usize {
        1 + usize::from(self.transport != TransportKind::None) + self.payload.len()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => f.write_str("int"),
            Type::Bool => f.write_str("bool"),
            Type::Str => f.write_str("string"),
            Type::Char => f.write_str("char"),
            Type::Unit => f.write_str("unit"),
            Type::Host => f.write_str("host"),
            Type::Blob => f.write_str("blob"),
            Type::Ip => f.write_str("ip"),
            Type::Tcp => f.write_str("tcp"),
            Type::Udp => f.write_str("udp"),
            Type::Tuple(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str("*")?;
                    }
                    if matches!(p, Type::Tuple(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Type::List(t) => {
                if matches!(**t, Type::Tuple(_)) {
                    write!(f, "({t}) list")
                } else {
                    write!(f, "{t} list")
                }
            }
            Type::Table(k, v) => write!(f, "({k}, {v}) hash_table"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_common_types() {
        let t = Type::Tuple([Type::Ip, Type::Tcp, Type::Blob].into());
        assert_eq!(t.to_string(), "ip*tcp*blob");
        let tbl = Type::Table(
            Arc::new(Type::Tuple([Type::Host, Type::Host].into())),
            Arc::new(Type::Int),
        );
        assert_eq!(tbl.to_string(), "(host*host, int) hash_table");
    }

    #[test]
    fn nested_tuple_display_parenthesizes() {
        let t = Type::Tuple([Type::Int, Type::Tuple([Type::Bool, Type::Char].into())].into());
        assert_eq!(t.to_string(), "int*(bool*char)");
    }

    #[test]
    fn equality_types() {
        assert!(Type::Int.is_equality());
        assert!(Type::Tuple([Type::Host, Type::Int].into()).is_equality());
        assert!(!Type::Ip.is_equality());
        assert!(!Type::Table(Arc::new(Type::Int), Arc::new(Type::Int)).is_equality());
        assert!(!Type::Tuple([Type::Int, Type::Tcp].into()).is_equality());
    }

    #[test]
    fn packet_shape_tcp_blob() {
        let t = Type::Tuple([Type::Ip, Type::Tcp, Type::Blob].into());
        let s = t.packet_shape().unwrap();
        assert_eq!(s.transport, TransportKind::Tcp);
        assert_eq!(s.payload, vec![Type::Blob]);
    }

    #[test]
    fn packet_shape_typed_payload() {
        let t = Type::Tuple([Type::Ip, Type::Tcp, Type::Char, Type::Int].into());
        let s = t.packet_shape().unwrap();
        assert_eq!(s.transport, TransportKind::Tcp);
        assert_eq!(s.payload, vec![Type::Char, Type::Int]);
    }

    #[test]
    fn packet_shape_rejects_non_packets() {
        assert!(Type::Int.packet_shape().is_none());
        assert!(Type::Tuple([Type::Tcp, Type::Blob].into())
            .packet_shape()
            .is_none());
        // blob must come last
        let t = Type::Tuple([Type::Ip, Type::Udp, Type::Blob, Type::Int].into());
        assert!(t.packet_shape().is_none());
        // header types cannot appear in the payload
        let t = Type::Tuple([Type::Ip, Type::Tcp, Type::Ip].into());
        assert!(t.packet_shape().is_none());
    }

    #[test]
    fn packet_shape_raw_ip() {
        let t = Type::Tuple([Type::Ip, Type::Blob].into());
        let s = t.packet_shape().unwrap();
        assert_eq!(s.transport, TransportKind::None);
    }

    #[test]
    fn tuple_constructor_collapses_singleton() {
        assert_eq!(Type::tuple(vec![Type::Int]), Type::Int);
        assert_eq!(
            Type::tuple(vec![Type::Int, Type::Bool]),
            Type::Tuple([Type::Int, Type::Bool].into())
        );
    }

    #[test]
    fn defaultable_types() {
        assert!(Type::Int.is_defaultable());
        assert!(Type::Table(Arc::new(Type::Int), Arc::new(Type::Int)).is_defaultable());
        assert!(!Type::Ip.is_defaultable());
    }
}
