//! The PLAN-P primitive library — *signatures only*.
//!
//! This module is the single source of truth for the primitive interface:
//! names, type rules, effect classes, and which exceptions each primitive
//! may raise. The type checker, the safety analyses, the portable
//! interpreter, and the JIT all consult this table, which is what lets the
//! JIT be "generated from" the interpreter: both are driven by one
//! declarative description (the evaluation functions live in `planp-vm`
//! and are keyed by [`PrimId`], with a conformance test ensuring every
//! signature has exactly one implementation).
//!
//! The set extends the original PLAN-P routing primitives with the
//! ASP-oriented additions described in section 2.3 of the paper
//! (packet-payload manipulation, audio degradation, table management,
//! link monitoring).

use crate::types::Type;
use std::sync::OnceLock;

/// Identifies a primitive; an index into [`table()`]'s primitive list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrimId(pub u32);

/// Effect classification, used to restrict where a primitive may appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimClass {
    /// Pure computation — allowed anywhere, including `val` initializers.
    Pure,
    /// Allocates mutable state (`mkTable`) — allowed in `proto` and
    /// `initstate` initializers and in bodies, but not in `val`.
    Alloc,
    /// Mutates channel/protocol state (`tblSet`, `tblDel`).
    StateWrite,
    /// Reads the node environment (`thisHost`, `timeMs`, `linkLoad`, …).
    Env,
    /// Performs I/O (`print`, `deliver`).
    Io,
}

impl PrimClass {
    /// True if a call of this class may appear in a `val` initializer.
    pub fn allowed_in_val(self) -> bool {
        matches!(self, PrimClass::Pure)
    }

    /// True if a call of this class may appear in `proto`/`initstate`.
    pub fn allowed_in_state_init(self) -> bool {
        matches!(self, PrimClass::Pure | PrimClass::Alloc)
    }
}

/// A scalar a primitive reads out of, or writes into, one value: a
/// field of a packet header, or the length of a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `ip` source address.
    IpSrc,
    /// `ip` destination address.
    IpDst,
    /// `ip` time to live.
    IpTtl,
    /// `ip` protocol number.
    IpProto,
    /// `tcp` source port.
    TcpSrc,
    /// `tcp` destination port.
    TcpDst,
    /// `tcp` sequence number.
    TcpSeq,
    /// `tcp` acknowledgement number.
    TcpAck,
    /// `tcp` SYN flag.
    TcpIsSyn,
    /// `tcp` FIN flag.
    TcpIsFin,
    /// `tcp` ACK flag.
    TcpIsAck,
    /// `tcp` RST flag.
    TcpIsRst,
    /// `udp` source port.
    UdpSrc,
    /// `udp` destination port.
    UdpDst,
    /// Length of a `blob`.
    BlobLen,
}

impl Field {
    /// The type of the value the field sits in.
    pub fn holder(self) -> Type {
        use Field::*;
        match self {
            IpSrc | IpDst | IpTtl | IpProto => Type::Ip,
            TcpSrc | TcpDst | TcpSeq | TcpAck | TcpIsSyn | TcpIsFin | TcpIsAck | TcpIsRst => {
                Type::Tcp
            }
            UdpSrc | UdpDst => Type::Udp,
            BlobLen => Type::Blob,
        }
    }

    /// The field's own type: `host`, `bool` or `int`.
    pub fn ty(self) -> Type {
        use Field::*;
        match self {
            IpSrc | IpDst => Type::Host,
            TcpIsSyn | TcpIsFin | TcpIsAck | TcpIsRst => Type::Bool,
            _ => Type::Int,
        }
    }
}

/// What a primitive that only touches one [`Field`] does with it. An
/// engine that knows its operands' types can run such a call as a load
/// or a store instead of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `f(v)`: reads the field; cannot raise.
    Get(Field),
    /// `f(v, x)`: `v` with the field set to `x` (`OutOfRange` for a
    /// port outside `0..65536`).
    Set(Field),
}

/// The type rule of a primitive.
#[derive(Debug, Clone)]
enum Sig {
    /// Fixed argument and result types.
    Fixed(Vec<Type>, Type),
    /// Context-sensitive rule, dispatched by name in [`PrimSig::check`].
    Special,
}

/// A primitive's full signature.
#[derive(Debug, Clone)]
pub struct PrimSig {
    /// Surface name.
    pub name: &'static str,
    /// Effect class.
    pub class: PrimClass,
    /// Names of exceptions the primitive may raise.
    pub raises: &'static [&'static str],
    /// Number of arguments.
    pub arity: usize,
    /// Set for a scalar accessor or a header-field setter: the whole of
    /// what the primitive does.
    pub access: Option<Access>,
    sig: Sig,
}

impl PrimSig {
    /// Type-checks a call of this primitive.
    ///
    /// `args` are the synthesized argument types (already checked to match
    /// `arity`); `expected` is the type the context demands, when known —
    /// this is how `mkTable` and the empty list get their types.
    ///
    /// # Errors
    ///
    /// Returns a message describing the mismatch.
    pub fn check(&self, args: &[Type], expected: Option<&Type>) -> Result<Type, String> {
        match &self.sig {
            Sig::Fixed(params, ret) => {
                for (i, (got, want)) in args.iter().zip(params.iter()).enumerate() {
                    if got != want {
                        return Err(format!(
                            "argument {} of `{}` has type {}, expected {}",
                            i + 1,
                            self.name,
                            got,
                            want
                        ));
                    }
                }
                Ok(ret.clone())
            }
            Sig::Special => self.check_special(args, expected),
        }
    }

    fn check_special(&self, args: &[Type], expected: Option<&Type>) -> Result<Type, String> {
        match self.name {
            "mkTable" => {
                if args[0] != Type::Int {
                    return Err("`mkTable` takes an int size hint".into());
                }
                match expected {
                    Some(t @ Type::Table(k, _)) => {
                        if !k.is_equality() {
                            return Err(format!(
                                "hash_table key type {k} does not support equality"
                            ));
                        }
                        Ok(t.clone())
                    }
                    Some(other) => Err(format!(
                        "`mkTable` used where a {other} is expected (need a hash_table type)"
                    )),
                    None => Err(
                        "cannot infer the table type of `mkTable` here; add a type annotation"
                            .into(),
                    ),
                }
            }
            "tblGet" | "tblHas" | "tblDel" => {
                let Type::Table(k, v) = &args[0] else {
                    return Err(format!("`{}` takes a hash_table first", self.name));
                };
                if &args[1] != k.as_ref() {
                    return Err(format!("table key has type {}, expected {}", args[1], k));
                }
                Ok(match self.name {
                    "tblGet" => v.as_ref().clone(),
                    "tblHas" => Type::Bool,
                    _ => Type::Unit,
                })
            }
            "tblSet" => {
                let Type::Table(k, v) = &args[0] else {
                    return Err("`tblSet` takes a hash_table first".into());
                };
                if &args[1] != k.as_ref() {
                    return Err(format!("table key has type {}, expected {}", args[1], k));
                }
                if &args[2] != v.as_ref() {
                    return Err(format!("table value has type {}, expected {}", args[2], v));
                }
                Ok(Type::Unit)
            }
            "tblSize" | "tblClear" => {
                if !matches!(args[0], Type::Table(..)) {
                    return Err(format!("`{}` takes a hash_table", self.name));
                }
                Ok(if self.name == "tblSize" {
                    Type::Int
                } else {
                    Type::Unit
                })
            }
            "listLen" | "listRev" => {
                let Type::List(t) = &args[0] else {
                    return Err(format!("`{}` takes a list", self.name));
                };
                Ok(if self.name == "listLen" {
                    Type::Int
                } else {
                    Type::List(t.clone())
                })
            }
            "listGet" => {
                let Type::List(t) = &args[0] else {
                    return Err("`listGet` takes a list first".into());
                };
                if args[1] != Type::Int {
                    return Err("`listGet` index must be int".into());
                }
                Ok(t.as_ref().clone())
            }
            "cons" => {
                let Type::List(t) = &args[1] else {
                    return Err("`cons` takes a list second".into());
                };
                if &args[0] != t.as_ref() {
                    return Err(format!("cannot cons a {} onto a {} list", args[0], t));
                }
                Ok(Type::List(t.clone()))
            }
            "append" => {
                let (Type::List(a), Type::List(b)) = (&args[0], &args[1]) else {
                    return Err("`append` takes two lists".into());
                };
                if a != b {
                    return Err(format!("cannot append {} list to {} list", b, a));
                }
                Ok(Type::List(a.clone()))
            }
            "print" | "println" => {
                if !args[0].is_printable() {
                    return Err(format!("values of type {} cannot be printed", args[0]));
                }
                Ok(Type::Unit)
            }
            "deliver" => {
                if args[0].packet_shape().is_none() {
                    return Err(format!(
                        "`deliver` takes a packet (ip*…) value, found {}",
                        args[0]
                    ));
                }
                Ok(Type::Unit)
            }
            other => unreachable!("special rule for unknown primitive {other}"),
        }
    }
}

/// The complete primitive table, with name lookup.
#[derive(Debug)]
pub struct PrimTable {
    prims: Vec<PrimSig>,
    #[allow(clippy::disallowed_types)] // lookup-only: built once, `get`, never iterated
    by_name: std::collections::HashMap<&'static str, PrimId>,
}

impl PrimTable {
    /// Looks a primitive up by name.
    pub fn lookup(&self, name: &str) -> Option<(PrimId, &PrimSig)> {
        let id = *self.by_name.get(name)?;
        Some((id, &self.prims[id.0 as usize]))
    }

    /// Returns the signature for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn sig(&self, id: PrimId) -> &PrimSig {
        &self.prims[id.0 as usize]
    }

    /// Number of primitives (implementations are indexed `0..len`).
    pub fn len(&self) -> usize {
        self.prims.len()
    }

    /// True if the table is empty (it never is; satisfies clippy's
    /// `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.prims.is_empty()
    }

    /// Iterates over `(PrimId, &PrimSig)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PrimId, &PrimSig)> {
        self.prims
            .iter()
            .enumerate()
            .map(|(i, s)| (PrimId(i as u32), s))
    }
}

/// Exceptions predeclared in every program, in [`ExnId`](crate::tast::ExnId)
/// order. User `exception` declarations follow these.
pub const PREDECLARED_EXNS: &[&str] = &["NotFound", "OutOfRange", "Format", "Div", "Empty"];

/// Returns the global primitive table.
pub fn table() -> &'static PrimTable {
    static TABLE: OnceLock<PrimTable> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

fn build_table() -> PrimTable {
    use PrimClass::*;
    use Type::*;
    let fixed = |name, class, raises, params: Vec<Type>, ret: Type| PrimSig {
        name,
        class,
        raises,
        arity: params.len(),
        access: None,
        sig: Sig::Fixed(params, ret),
    };
    let special = |name, class, raises: &'static [&'static str], arity| PrimSig {
        name,
        class,
        raises,
        arity,
        access: None,
        sig: Sig::Special,
    };
    const NONE: &[&str] = &[];
    // The type rule of an accessor or a setter is its field's.
    let get = |name, f: Field| PrimSig {
        access: Some(Access::Get(f)),
        ..fixed(name, Pure, NONE, vec![f.holder()], f.ty())
    };
    let set = |name, f: Field| PrimSig {
        access: Some(Access::Set(f)),
        ..fixed(name, Pure, NONE, vec![f.holder(), f.ty()], f.holder())
    };
    const OOR: &[&str] = &["OutOfRange"];

    let prims = vec![
        // --- IP header -------------------------------------------------
        get("ipSrc", Field::IpSrc),
        get("ipDst", Field::IpDst),
        set("ipSrcSet", Field::IpSrc),
        set("ipDestSet", Field::IpDst),
        get("ipTtl", Field::IpTtl),
        get("ipProto", Field::IpProto),
        // --- TCP header ------------------------------------------------
        get("tcpSrc", Field::TcpSrc),
        get("tcpDst", Field::TcpDst),
        set("tcpSrcSet", Field::TcpSrc),
        set("tcpDstSet", Field::TcpDst),
        get("tcpSeq", Field::TcpSeq),
        get("tcpAck", Field::TcpAck),
        get("tcpIsSyn", Field::TcpIsSyn),
        get("tcpIsFin", Field::TcpIsFin),
        get("tcpIsAck", Field::TcpIsAck),
        get("tcpIsRst", Field::TcpIsRst),
        // --- UDP header ------------------------------------------------
        get("udpSrc", Field::UdpSrc),
        get("udpDst", Field::UdpDst),
        set("udpSrcSet", Field::UdpSrc),
        set("udpDstSet", Field::UdpDst),
        // --- blobs -----------------------------------------------------
        get("blobLen", Field::BlobLen),
        fixed("blobSub", Pure, OOR, vec![Blob, Int, Int], Blob),
        fixed("blobCat", Pure, NONE, vec![Blob, Blob], Blob),
        fixed("blobByte", Pure, OOR, vec![Blob, Int], Int),
        fixed("blobSetByte", Pure, OOR, vec![Blob, Int, Int], Blob),
        fixed("blobInt", Pure, OOR, vec![Blob, Int], Int),
        fixed("blobSetInt", Pure, OOR, vec![Blob, Int, Int], Blob),
        fixed("mkBlob", Pure, OOR, vec![Int, Int], Blob),
        fixed("blobFromString", Pure, NONE, vec![Str], Blob),
        fixed("blobToString", Pure, NONE, vec![Blob], Str),
        // --- strings / chars --------------------------------------------
        fixed("strLen", Pure, NONE, vec![Str], Int),
        fixed("strSub", Pure, OOR, vec![Str, Int, Int], Str),
        fixed("strChar", Pure, OOR, vec![Str, Int], Char),
        fixed("strFind", Pure, NONE, vec![Str, Str], Int),
        fixed("intToString", Pure, NONE, vec![Int], Str),
        fixed("strToInt", Pure, &["Format"], vec![Str], Int),
        fixed("charPos", Pure, NONE, vec![Char], Int),
        fixed("chr", Pure, OOR, vec![Int], Char),
        // --- hosts -------------------------------------------------------
        fixed("isMulticast", Pure, NONE, vec![Host], Bool),
        fixed("thisHost", Env, NONE, vec![], Host),
        // --- environment -------------------------------------------------
        fixed("timeMs", Env, NONE, vec![], Int),
        fixed("linkLoad", Env, NONE, vec![Host], Int),
        fixed("linkCapacity", Env, NONE, vec![Host], Int),
        fixed("queueLen", Env, NONE, vec![Host], Int),
        fixed("randInt", Env, NONE, vec![Int], Int),
        // `setTimer(delay_ms, key)`: asks the node to re-dispatch a
        // synthetic packet on the `timer` channel after `delay_ms`
        // milliseconds, carrying `key` in its payload. Classed Io so it
        // cannot appear in `val`/state initializers.
        fixed("setTimer", Io, NONE, vec![Int, Int], Unit),
        // --- audio (section 3.1: 16-bit stereo → 8-bit monaural) ---------
        fixed("audio16to8", Pure, NONE, vec![Blob], Blob),
        fixed("audio8to16", Pure, NONE, vec![Blob], Blob),
        fixed("audioStereoToMono", Pure, NONE, vec![Blob], Blob),
        fixed("audioMonoToStereo", Pure, NONE, vec![Blob], Blob),
        // --- tables ------------------------------------------------------
        special("mkTable", Alloc, NONE, 1),
        special("tblGet", Pure, &["NotFound"], 2),
        special("tblSet", StateWrite, NONE, 3),
        special("tblHas", Pure, NONE, 2),
        special("tblDel", StateWrite, NONE, 2),
        special("tblClear", StateWrite, NONE, 1),
        special("tblSize", Pure, NONE, 1),
        // --- lists ---------------------------------------------------------
        special("listLen", Pure, NONE, 1),
        special("listGet", Pure, OOR, 2),
        special("cons", Pure, NONE, 2),
        special("append", Pure, NONE, 2),
        special("listRev", Pure, NONE, 1),
        // --- I/O -----------------------------------------------------------
        special("print", Io, NONE, 1),
        special("println", Io, NONE, 1),
        special("deliver", Io, NONE, 1),
    ];

    let by_name = prims
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name, PrimId(i as u32)))
        .collect();
    PrimTable { prims, by_name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type::*;

    #[test]
    fn lookup_finds_known_primitives() {
        for name in ["ipSrc", "tcpDst", "mkTable", "audio16to8", "deliver"] {
            assert!(table().lookup(name).is_some(), "missing {name}");
        }
        assert!(table().lookup("nonsense").is_none());
    }

    #[test]
    fn names_are_unique() {
        let t = table();
        #[allow(clippy::disallowed_types)] // lookup-only: `insert` as a membership test
        let mut seen = std::collections::HashSet::new();
        for (_, sig) in t.iter() {
            assert!(seen.insert(sig.name), "duplicate primitive {}", sig.name);
        }
    }

    #[test]
    fn fixed_rule_checks_arguments() {
        let (_, sig) = table().lookup("ipDestSet").unwrap();
        assert_eq!(sig.check(&[Ip, Host], None).unwrap(), Ip);
        assert!(sig.check(&[Ip, Int], None).is_err());
    }

    #[test]
    fn mktable_requires_expected_type() {
        let (_, sig) = table().lookup("mkTable").unwrap();
        assert!(sig.check(&[Int], None).is_err());
        let want = Table(Host.into(), Int.into());
        assert_eq!(sig.check(&[Int], Some(&want)).unwrap(), want);
        // Non-equality key type rejected.
        let bad = Table(Ip.into(), Int.into());
        assert!(sig.check(&[Int], Some(&bad)).is_err());
    }

    #[test]
    fn table_ops_type_rules() {
        let tbl = Table(Host.into(), Int.into());
        let (_, get) = table().lookup("tblGet").unwrap();
        assert_eq!(get.check(&[tbl.clone(), Host], None).unwrap(), Int);
        assert!(get.check(&[tbl.clone(), Int], None).is_err());
        let (_, set) = table().lookup("tblSet").unwrap();
        assert_eq!(set.check(&[tbl.clone(), Host, Int], None).unwrap(), Unit);
        assert!(set.check(&[tbl.clone(), Host, Bool], None).is_err());
        let (_, has) = table().lookup("tblHas").unwrap();
        assert_eq!(has.check(&[tbl, Host], None).unwrap(), Bool);
    }

    #[test]
    fn list_ops_type_rules() {
        let l = List(Int.into());
        let (_, consp) = table().lookup("cons").unwrap();
        assert_eq!(consp.check(&[Int, l.clone()], None).unwrap(), l);
        assert!(consp.check(&[Bool, l.clone()], None).is_err());
        let (_, get) = table().lookup("listGet").unwrap();
        assert_eq!(get.check(&[l.clone(), Int], None).unwrap(), Int);
        let (_, app) = table().lookup("append").unwrap();
        assert_eq!(app.check(&[l.clone(), l.clone()], None).unwrap(), l);
    }

    #[test]
    fn print_rejects_tables() {
        let (_, p) = table().lookup("print").unwrap();
        assert!(p.check(&[Table(Int.into(), Int.into())], None).is_err());
        assert_eq!(p.check(&[Str], None).unwrap(), Unit);
    }

    #[test]
    fn deliver_requires_packet_type() {
        let (_, d) = table().lookup("deliver").unwrap();
        let pkt = Tuple([Ip, Tcp, Blob].into());
        assert_eq!(d.check(&[pkt], None).unwrap(), Unit);
        assert!(d.check(&[Int], None).is_err());
    }

    #[test]
    fn accessors_and_setters_are_marked_and_typed_by_their_field() {
        let marked = |want: fn(Access) -> bool| -> Vec<&str> {
            let prims = table().iter();
            let of_kind = prims.filter(|(_, s)| s.access.is_some_and(want));
            of_kind.map(|(_, s)| s.name).collect()
        };
        assert_eq!(
            marked(|a| matches!(a, Access::Get(_))),
            [
                "ipSrc", "ipDst", "ipTtl", "ipProto", "tcpSrc", "tcpDst", "tcpSeq", "tcpAck",
                "tcpIsSyn", "tcpIsFin", "tcpIsAck", "tcpIsRst", "udpSrc", "udpDst", "blobLen"
            ]
        );
        assert_eq!(
            marked(|a| matches!(a, Access::Set(_))),
            [
                "ipSrcSet",
                "ipDestSet",
                "tcpSrcSet",
                "tcpDstSet",
                "udpSrcSet",
                "udpDstSet"
            ]
        );
        for (_, sig) in table().iter() {
            match sig.access {
                Some(Access::Get(f)) => {
                    assert!(sig.raises.is_empty(), "{}", sig.name);
                    assert_eq!(sig.check(&[f.holder()], None), Ok(f.ty()), "{}", sig.name);
                }
                Some(Access::Set(f)) => {
                    let hdr = f.holder();
                    assert_eq!(
                        sig.check(&[hdr.clone(), f.ty()], None),
                        Ok(hdr),
                        "{}",
                        sig.name
                    );
                }
                None => {}
            }
        }
        let (_, dst) = table().lookup("tcpDst").unwrap();
        assert_eq!(dst.access, Some(Access::Get(Field::TcpDst)));
        assert_eq!(table().lookup("blobSub").unwrap().1.access, None);
    }

    #[test]
    fn raises_metadata() {
        let (_, get) = table().lookup("tblGet").unwrap();
        assert_eq!(get.raises, &["NotFound"]);
        let (_, sub) = table().lookup("blobSub").unwrap();
        assert_eq!(sub.raises, &["OutOfRange"]);
    }

    #[test]
    fn classes_restrict_contexts() {
        assert!(PrimClass::Pure.allowed_in_val());
        assert!(!PrimClass::Alloc.allowed_in_val());
        assert!(PrimClass::Alloc.allowed_in_state_init());
        assert!(!PrimClass::Io.allowed_in_state_init());
    }
}
