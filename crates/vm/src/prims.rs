//! Implementations of the PLAN-P primitives.
//!
//! Each entry of the declarative signature table in
//! [`planp_lang::prims`] is paired here with exactly one evaluation
//! function, indexed by [`PrimId`]. Both the portable interpreter and the
//! JIT dispatch through this table — the "generate the JIT from the
//! interpreter" architecture of section 2.2: the semantics is written
//! once, and the JIT merely pre-resolves the dispatch.
//!
//! The scalar accessors and header-field setters the signature table
//! marks ([`Access`]) are written as two plain functions on unwrapped
//! operands, [`get`] and [`set`], and the four keyed table primitives as
//! four on a [`Key`], [`tbl_get`], [`tbl_has`], [`tbl_set`] and
//! [`tbl_del`]: the bytecode engine calls those from its typed
//! instructions, and the table entries the interpreter calls wrap the
//! same functions.

use crate::audio;
use crate::env::NetEnv;
use crate::pkthdr::{tcp_flags, IpHdr, TcpHdr, UdpHdr};
use crate::value::{exn, new_table, Key, ScalarTy, TableRef, Value, VmError};
use bytes::Bytes;
use planp_lang::prims::{table as sig_table, Access, Field, PrimId, PrimSig};
use planp_lang::types::Type;
use std::rc::Rc;
use std::sync::OnceLock;

/// The type of a primitive's evaluation function.
pub type PrimFn = fn(&[Value], &mut dyn NetEnv) -> Result<Value, VmError>;

/// Returns the evaluation functions, indexed by [`PrimId`].
pub fn impls() -> &'static [PrimFn] {
    static IMPLS: OnceLock<Vec<PrimFn>> = OnceLock::new();
    IMPLS.get_or_init(|| sig_table().iter().map(|(_, sig)| impl_for(sig)).collect())
}

/// Evaluates primitive `id` on `args`.
///
/// # Errors
///
/// Returns [`VmError::Exn`] for PLAN-P exceptions the primitive's
/// signature declares, and [`VmError::Trap`] on type confusion (ruled out
/// for checked programs).
pub fn eval(id: PrimId, args: &[Value], env: &mut dyn NetEnv) -> Result<Value, VmError> {
    impls()[id.0 as usize](args, env)
}

// ---- argument helpers ---------------------------------------------------

fn want_int(v: &Value) -> Result<i64, VmError> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(VmError::trap(format!("expected int, got {other:?}"))),
    }
}

fn want_host(v: &Value) -> Result<u32, VmError> {
    match v {
        Value::Host(a) => Ok(*a),
        other => Err(VmError::trap(format!("expected host, got {other:?}"))),
    }
}

fn want_char(v: &Value) -> Result<char, VmError> {
    match v {
        Value::Char(c) => Ok(*c),
        other => Err(VmError::trap(format!("expected char, got {other:?}"))),
    }
}

fn want_str(v: &Value) -> Result<&Rc<str>, VmError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(VmError::trap(format!("expected string, got {other:?}"))),
    }
}

fn want_blob(v: &Value) -> Result<&Bytes, VmError> {
    match v {
        Value::Blob(b) => Ok(b),
        other => Err(VmError::trap(format!("expected blob, got {other:?}"))),
    }
}

fn want_list(v: &Value) -> Result<&Rc<Vec<Value>>, VmError> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(VmError::trap(format!("expected list, got {other:?}"))),
    }
}

fn want_port(n: i64) -> Result<u16, VmError> {
    u16::try_from(n).map_err(|_| VmError::Exn(exn::OUT_OF_RANGE))
}

fn index(n: i64, len: usize) -> Result<usize, VmError> {
    if n < 0 || n as usize >= len {
        Err(VmError::Exn(exn::OUT_OF_RANGE))
    } else {
        Ok(n as usize)
    }
}

fn range(off: i64, len: i64, total: usize) -> Result<(usize, usize), VmError> {
    if off < 0 || len < 0 {
        return Err(VmError::Exn(exn::OUT_OF_RANGE));
    }
    let (off, len) = (off as usize, len as usize);
    if off.checked_add(len).is_none_or(|end| end > total) {
        return Err(VmError::Exn(exn::OUT_OF_RANGE));
    }
    Ok((off, len))
}

// ---- dispatch -----------------------------------------------------------

/// Reads scalar field `f` of the header (or blob) `v`, as
/// [`ScalarTy::read`] would unwrap the field's value.
///
/// # Errors
///
/// Traps on a value the field does not sit in.
#[inline(always)]
pub fn get(f: Field, v: &Value) -> Result<i64, VmError> {
    use Field::*;
    Ok(match (f, v) {
        (IpSrc, Value::Ip(h)) => i64::from(h.src),
        (IpDst, Value::Ip(h)) => i64::from(h.dst),
        (IpTtl, Value::Ip(h)) => i64::from(h.ttl),
        (IpProto, Value::Ip(h)) => i64::from(h.proto),
        (TcpSrc, Value::Tcp(h)) => i64::from(h.sport),
        (TcpDst, Value::Tcp(h)) => i64::from(h.dport),
        (TcpSeq, Value::Tcp(h)) => i64::from(h.seq),
        (TcpAck, Value::Tcp(h)) => i64::from(h.ack),
        (TcpIsSyn, Value::Tcp(h)) => i64::from(h.has(tcp_flags::SYN)),
        (TcpIsFin, Value::Tcp(h)) => i64::from(h.has(tcp_flags::FIN)),
        (TcpIsAck, Value::Tcp(h)) => i64::from(h.has(tcp_flags::ACK)),
        (TcpIsRst, Value::Tcp(h)) => i64::from(h.has(tcp_flags::RST)),
        (UdpSrc, Value::Udp(h)) => i64::from(h.sport),
        (UdpDst, Value::Udp(h)) => i64::from(h.dport),
        (BlobLen, Value::Blob(b)) => b.len() as i64,
        _ => return Err(misplaced(f, v)),
    })
}

/// What [`get`] read, as the value the accessor returns.
#[inline(always)]
pub fn wrap(f: Field, x: i64) -> Value {
    match f.ty() {
        Type::Host => Value::Host(x as u32),
        Type::Bool => Value::Bool(x != 0),
        _ => Value::Int(x),
    }
}

/// The header `v` with field `f` set to `x` (an unwrapped `host` or
/// `int`).
///
/// # Errors
///
/// Raises `OutOfRange` for a port outside `0..65536`; traps on a value
/// the field does not sit in, or a field no primitive writes.
#[inline(always)]
pub fn set(f: Field, v: &Value, x: i64) -> Result<Value, VmError> {
    use Field::*;
    Ok(match (f, v) {
        (IpSrc, Value::Ip(h)) => Value::Ip(IpHdr {
            src: x as u32,
            ..*h
        }),
        (IpDst, Value::Ip(h)) => Value::Ip(IpHdr {
            dst: x as u32,
            ..*h
        }),
        (TcpSrc, Value::Tcp(h)) => Value::Tcp(TcpHdr {
            sport: want_port(x)?,
            ..*h
        }),
        (TcpDst, Value::Tcp(h)) => Value::Tcp(TcpHdr {
            dport: want_port(x)?,
            ..*h
        }),
        (UdpSrc, Value::Udp(h)) => Value::Udp(UdpHdr {
            sport: want_port(x)?,
            ..*h
        }),
        (UdpDst, Value::Udp(h)) => Value::Udp(UdpHdr {
            dport: want_port(x)?,
            ..*h
        }),
        _ => return Err(misplaced(f, v)),
    })
}

#[cold]
fn misplaced(f: Field, v: &Value) -> VmError {
    VmError::trap(format!("field {f:?} of {v:?}"))
}

fn want_table(v: &Value) -> Result<&TableRef, VmError> {
    match v {
        Value::Table(t) => Ok(t),
        other => Err(VmError::trap(format!("expected table, got {other:?}"))),
    }
}

/// `tblGet(t, k)`: the entry under `k`.
///
/// # Errors
///
/// Raises `NotFound` for a key `t` does not hold; traps if `t` is not a
/// table.
#[inline]
pub fn tbl_get(t: &Value, k: &Key) -> Result<Value, VmError> {
    let entry = want_table(t)?.borrow().get(k).cloned();
    entry.ok_or(VmError::Exn(exn::NOT_FOUND))
}

/// `tblHas(t, k)`.
///
/// # Errors
///
/// Traps if `t` is not a table.
#[inline]
pub fn tbl_has(t: &Value, k: &Key) -> Result<bool, VmError> {
    Ok(want_table(t)?.borrow().contains_key(k))
}

/// `tblSet(t, k, v)`, noted to `env` as an insert when `k` is new.
///
/// # Errors
///
/// Traps if `t` is not a table.
#[inline]
pub fn tbl_set(t: &Value, k: Key, v: Value, env: &mut dyn NetEnv) -> Result<(), VmError> {
    let mut m = want_table(t)?.borrow_mut();
    let fresh = m.insert(k, v).is_none();
    let entries = m.len() as u64;
    drop(m);
    env.note_table_write(i64::from(fresh), entries);
    Ok(())
}

/// `tblDel(t, k)`, noted to `env` as an eviction when `k` was there.
///
/// # Errors
///
/// Traps if `t` is not a table.
#[inline]
pub fn tbl_del(t: &Value, k: &Key, env: &mut dyn NetEnv) -> Result<(), VmError> {
    let mut m = want_table(t)?.borrow_mut();
    let removed = m.remove(k).is_some();
    let entries = m.len() as u64;
    drop(m);
    env.note_table_write(-i64::from(removed), entries);
    Ok(())
}

/// Unwraps `v`, the new value of field `f`.
fn operand(f: Field, v: &Value) -> Result<i64, VmError> {
    let ty = ScalarTy::of(&f.ty()).ok_or_else(|| VmError::trap("field of no scalar type"))?;
    ty.read(v)
}

/// The table entries of the accessor and the setter of each field:
/// [`get`] and [`set`] behind the generic call protocol.
macro_rules! access_fns {
    ($($f:ident)*) => {
        fn getter(f: Field) -> PrimFn {
            match f {
                $(Field::$f => |a, _| get(Field::$f, &a[0]).map(|x| wrap(Field::$f, x)),)*
            }
        }
        fn setter(f: Field) -> PrimFn {
            match f {
                $(Field::$f => |a, _| set(Field::$f, &a[0], operand(Field::$f, &a[1])?),)*
            }
        }
    };
}
access_fns!(IpSrc IpDst IpTtl IpProto TcpSrc TcpDst TcpSeq TcpAck TcpIsSyn TcpIsFin TcpIsAck
    TcpIsRst UdpSrc UdpDst BlobLen);

fn impl_for(sig: &PrimSig) -> PrimFn {
    match sig.access {
        Some(Access::Get(f)) => return getter(f),
        Some(Access::Set(f)) => return setter(f),
        None => {}
    }
    match sig.name {
        // Blobs
        "blobSub" => |a, _| {
            let b = want_blob(&a[0])?;
            let (off, len) = range(want_int(&a[1])?, want_int(&a[2])?, b.len())?;
            Ok(Value::Blob(b.slice(off..off + len)))
        },
        "blobCat" => |a, _| {
            let x = want_blob(&a[0])?;
            let y = want_blob(&a[1])?;
            let mut out = Vec::with_capacity(x.len() + y.len());
            out.extend_from_slice(x);
            out.extend_from_slice(y);
            Ok(Value::Blob(Bytes::from(out)))
        },
        "blobByte" => |a, _| {
            let b = want_blob(&a[0])?;
            let i = index(want_int(&a[1])?, b.len())?;
            Ok(Value::Int(b[i] as i64))
        },
        "blobSetByte" => |a, _| {
            let b = want_blob(&a[0])?;
            let i = index(want_int(&a[1])?, b.len())?;
            let v = want_int(&a[2])?;
            if !(0..=255).contains(&v) {
                return Err(VmError::Exn(exn::OUT_OF_RANGE));
            }
            let mut out = b.to_vec();
            out[i] = v as u8;
            Ok(Value::Blob(Bytes::from(out)))
        },
        "blobInt" => |a, _| {
            let b = want_blob(&a[0])?;
            let (off, _) = range(want_int(&a[1])?, 8, b.len())?;
            let bytes: [u8; 8] = b[off..off + 8].try_into().expect("len checked");
            Ok(Value::Int(i64::from_be_bytes(bytes)))
        },
        "blobSetInt" => |a, _| {
            let b = want_blob(&a[0])?;
            let (off, _) = range(want_int(&a[1])?, 8, b.len())?;
            let mut out = b.to_vec();
            out[off..off + 8].copy_from_slice(&want_int(&a[2])?.to_be_bytes());
            Ok(Value::Blob(Bytes::from(out)))
        },
        "mkBlob" => |a, _| {
            let len = want_int(&a[0])?;
            let fill = want_int(&a[1])?;
            if !(0..=1 << 24).contains(&len) || !(0..=255).contains(&fill) {
                return Err(VmError::Exn(exn::OUT_OF_RANGE));
            }
            Ok(Value::Blob(Bytes::from(vec![fill as u8; len as usize])))
        },
        "blobFromString" => |a, _| {
            Ok(Value::Blob(Bytes::copy_from_slice(
                want_str(&a[0])?.as_bytes(),
            )))
        },
        "blobToString" => |a, _| {
            let b = want_blob(&a[0])?;
            Ok(Value::Str(String::from_utf8_lossy(b).into_owned().into()))
        },
        // Strings / chars
        "strLen" => |a, _| Ok(Value::Int(want_str(&a[0])?.chars().count() as i64)),
        "strSub" => |a, _| {
            let s = want_str(&a[0])?;
            let chars: Vec<char> = s.chars().collect();
            let (off, len) = range(want_int(&a[1])?, want_int(&a[2])?, chars.len())?;
            Ok(Value::Str(
                chars[off..off + len].iter().collect::<String>().into(),
            ))
        },
        "strChar" => |a, _| {
            let s = want_str(&a[0])?;
            let i = want_int(&a[1])?;
            s.chars()
                .nth(usize::try_from(i).map_err(|_| VmError::Exn(exn::OUT_OF_RANGE))?)
                .map(Value::Char)
                .ok_or(VmError::Exn(exn::OUT_OF_RANGE))
        },
        "strFind" => |a, _| {
            let hay = want_str(&a[0])?;
            let needle = want_str(&a[1])?;
            match hay.find(needle.as_ref()) {
                Some(byte_pos) => {
                    let char_pos = hay[..byte_pos].chars().count();
                    Ok(Value::Int(char_pos as i64))
                }
                None => Ok(Value::Int(-1)),
            }
        },
        "intToString" => |a, _| Ok(Value::Str(want_int(&a[0])?.to_string().into())),
        "strToInt" => |a, _| {
            want_str(&a[0])?
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| VmError::Exn(exn::FORMAT))
        },
        "charPos" => |a, _| Ok(Value::Int(want_char(&a[0])? as i64)),
        "chr" => |a, _| {
            let n = want_int(&a[0])?;
            u32::try_from(n)
                .ok()
                .and_then(char::from_u32)
                .map(Value::Char)
                .ok_or(VmError::Exn(exn::OUT_OF_RANGE))
        },
        // Hosts
        "isMulticast" => |a, _| Ok(Value::Bool((want_host(&a[0])? >> 28) == 0xE)),
        "thisHost" => |_, env| Ok(Value::Host(env.this_host())),
        // Environment
        "timeMs" => |_, env| Ok(Value::Int(env.time_ms())),
        "linkLoad" => |a, env| Ok(Value::Int(env.link_load(want_host(&a[0])?))),
        "linkCapacity" => |a, env| Ok(Value::Int(env.link_capacity(want_host(&a[0])?))),
        "queueLen" => |a, env| Ok(Value::Int(env.queue_len(want_host(&a[0])?))),
        "randInt" => |a, env| Ok(Value::Int(env.rand_int(want_int(&a[0])?))),
        "setTimer" => |a, env| {
            env.set_timer(want_int(&a[0])?, want_int(&a[1])?);
            Ok(Value::Unit)
        },
        // Audio
        "audio16to8" => |a, _| Ok(Value::Blob(audio::pcm16_to_8(want_blob(&a[0])?))),
        "audio8to16" => |a, _| Ok(Value::Blob(audio::pcm8_to_16(want_blob(&a[0])?))),
        "audioStereoToMono" => |a, _| Ok(Value::Blob(audio::stereo_to_mono(want_blob(&a[0])?))),
        "audioMonoToStereo" => |a, _| Ok(Value::Blob(audio::mono_to_stereo(want_blob(&a[0])?))),
        // Tables
        "mkTable" => |a, _| {
            let hint = want_int(&a[0])?.clamp(0, 1 << 20) as usize;
            Ok(Value::Table(new_table(hint)))
        },
        "tblGet" => |a, _| tbl_get(&a[0], &Key::of(&a[1])),
        "tblSet" => {
            |a, env| tbl_set(&a[0], Key::of(&a[1]), a[2].clone(), env).map(|()| Value::Unit)
        }
        "tblHas" => |a, _| tbl_has(&a[0], &Key::of(&a[1])).map(Value::Bool),
        "tblDel" => |a, env| tbl_del(&a[0], &Key::of(&a[1]), env).map(|()| Value::Unit),
        "tblClear" => |a, env| {
            let mut m = want_table(&a[0])?.borrow_mut();
            let dropped = m.len() as i64;
            m.clear();
            drop(m);
            env.note_table_write(-dropped, 0);
            Ok(Value::Unit)
        },
        "tblSize" => |a, _| Ok(Value::Int(want_table(&a[0])?.borrow().len() as i64)),
        // Lists
        "listLen" => |a, _| Ok(Value::Int(want_list(&a[0])?.len() as i64)),
        "listGet" => |a, _| {
            let l = want_list(&a[0])?;
            let i = index(want_int(&a[1])?, l.len())?;
            Ok(l[i].clone())
        },
        "cons" => |a, _| {
            let l = want_list(&a[1])?;
            let mut out = Vec::with_capacity(l.len() + 1);
            out.push(a[0].clone());
            out.extend(l.iter().cloned());
            Ok(Value::List(Rc::new(out)))
        },
        "append" => |a, _| {
            let x = want_list(&a[0])?;
            let y = want_list(&a[1])?;
            let mut out = Vec::with_capacity(x.len() + y.len());
            out.extend(x.iter().cloned());
            out.extend(y.iter().cloned());
            Ok(Value::List(Rc::new(out)))
        },
        "listRev" => |a, _| {
            let l = want_list(&a[0])?;
            Ok(Value::List(Rc::new(l.iter().rev().cloned().collect())))
        },
        // I/O
        "print" => |a, env| {
            env.print(&a[0].display());
            Ok(Value::Unit)
        },
        "println" => |a, env| {
            env.print(&a[0].display());
            env.print("\n");
            Ok(Value::Unit)
        },
        "deliver" => |a, env| {
            env.deliver(crate::env::Outgoing::Shared(crate::env::packet_parts(
                &a[0],
            )?));
            Ok(Value::Unit)
        },
        other => panic!("primitive `{other}` has a signature but no implementation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use crate::pkthdr::addr;

    fn run(name: &str, args: Vec<Value>) -> Result<Value, VmError> {
        let (id, _) = sig_table()
            .lookup(name)
            .unwrap_or_else(|| panic!("{name}?"));
        let mut env = MockEnv::new(addr(10, 0, 0, 1));
        eval(id, &args, &mut env)
    }

    #[test]
    fn every_signature_has_an_implementation() {
        // Forces construction of the whole table; a missing arm panics.
        assert_eq!(impls().len(), sig_table().len());
    }

    #[test]
    fn ip_header_ops() {
        let h = Value::Ip(IpHdr::new(addr(1, 2, 3, 4), addr(5, 6, 7, 8), 17));
        assert!(matches!(run("ipSrc", vec![h.clone()]), Ok(Value::Host(a)) if a == addr(1,2,3,4)));
        let set = run("ipDestSet", vec![h.clone(), Value::Host(addr(9, 9, 9, 9))]).unwrap();
        let Value::Ip(newh) = set else { panic!() };
        assert_eq!(newh.dst, addr(9, 9, 9, 9));
        assert_eq!(newh.src, addr(1, 2, 3, 4));
        assert!(matches!(run("ipTtl", vec![h]), Ok(Value::Int(64))));
    }

    #[test]
    fn tcp_udp_ops() {
        let t = Value::Tcp(TcpHdr::data(1234, 80, 7));
        assert!(matches!(run("tcpDst", vec![t.clone()]), Ok(Value::Int(80))));
        assert!(matches!(
            run("tcpIsAck", vec![t.clone()]),
            Ok(Value::Bool(true))
        ));
        assert!(matches!(
            run("tcpIsSyn", vec![t.clone()]),
            Ok(Value::Bool(false))
        ));
        let t2 = run("tcpDstSet", vec![t, Value::Int(8080)]).unwrap();
        assert!(matches!(run("tcpDst", vec![t2]), Ok(Value::Int(8080))));
        let u = Value::Udp(UdpHdr::new(5000, 6000));
        assert!(matches!(
            run("udpSrc", vec![u.clone()]),
            Ok(Value::Int(5000))
        ));
        // Port out of range raises.
        let u2 = run("udpDstSet", vec![u, Value::Int(70000)]);
        assert_eq!(u2, Err(VmError::Exn(exn::OUT_OF_RANGE)));
    }

    #[test]
    fn blob_ops() {
        let b = Value::Blob(Bytes::from_static(b"hello world"));
        assert!(matches!(
            run("blobLen", vec![b.clone()]),
            Ok(Value::Int(11))
        ));
        let sub = run("blobSub", vec![b.clone(), Value::Int(6), Value::Int(5)]).unwrap();
        let Value::Blob(s) = &sub else { panic!() };
        assert_eq!(&s[..], b"world");
        assert!(matches!(
            run("blobByte", vec![b.clone(), Value::Int(0)]),
            Ok(Value::Int(104))
        ));
        assert_eq!(
            run("blobByte", vec![b.clone(), Value::Int(99)]),
            Err(VmError::Exn(exn::OUT_OF_RANGE))
        );
        let cat = run("blobCat", vec![sub, b]).unwrap();
        assert!(matches!(run("blobLen", vec![cat]), Ok(Value::Int(16))));
    }

    #[test]
    fn blob_int_round_trip() {
        let b = run("mkBlob", vec![Value::Int(16), Value::Int(0)]).unwrap();
        let b = run("blobSetInt", vec![b, Value::Int(8), Value::Int(-12345)]).unwrap();
        assert!(matches!(
            run("blobInt", vec![b, Value::Int(8)]),
            Ok(Value::Int(-12345))
        ));
    }

    #[test]
    fn string_ops() {
        let s = Value::str("GET /index.html HTTP/1.0");
        assert!(matches!(run("strLen", vec![s.clone()]), Ok(Value::Int(24))));
        assert!(matches!(
            run("strFind", vec![s.clone(), Value::str("index")]),
            Ok(Value::Int(5))
        ));
        assert!(matches!(
            run("strFind", vec![s.clone(), Value::str("zzz")]),
            Ok(Value::Int(-1))
        ));
        let sub = run("strSub", vec![s, Value::Int(4), Value::Int(11)]).unwrap();
        assert!(matches!(&sub, Value::Str(x) if x.as_ref() == "/index.html"));
        assert_eq!(run("strToInt", vec![Value::str("42")]), Ok(Value::Int(42)));
        assert_eq!(
            run("strToInt", vec![Value::str("nope")]),
            Err(VmError::Exn(exn::FORMAT))
        );
        assert_eq!(run("charPos", vec![Value::Char('A')]), Ok(Value::Int(65)));
        assert_eq!(run("chr", vec![Value::Int(66)]), Ok(Value::Char('B')));
        assert_eq!(
            run("chr", vec![Value::Int(-1)]),
            Err(VmError::Exn(exn::OUT_OF_RANGE))
        );
    }

    #[test]
    fn table_ops() {
        let t = run("mkTable", vec![Value::Int(8)]).unwrap();
        let k = Value::tuple(vec![Value::Host(1), Value::Int(80)]);
        assert_eq!(
            run("tblGet", vec![t.clone(), k.clone()]),
            Err(VmError::Exn(exn::NOT_FOUND))
        );
        run("tblSet", vec![t.clone(), k.clone(), Value::Int(1)]).unwrap();
        assert_eq!(run("tblGet", vec![t.clone(), k.clone()]), Ok(Value::Int(1)));
        assert_eq!(
            run("tblHas", vec![t.clone(), k.clone()]),
            Ok(Value::Bool(true))
        );
        assert_eq!(run("tblSize", vec![t.clone()]), Ok(Value::Int(1)));
        run("tblDel", vec![t.clone(), k.clone()]).unwrap();
        assert_eq!(run("tblHas", vec![t, k]), Ok(Value::Bool(false)));
    }

    #[test]
    fn list_ops() {
        let l = Value::List(Rc::new(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(run("listLen", vec![l.clone()]), Ok(Value::Int(2)));
        assert_eq!(
            run("listGet", vec![l.clone(), Value::Int(1)]),
            Ok(Value::Int(2))
        );
        assert_eq!(
            run("listGet", vec![l.clone(), Value::Int(5)]),
            Err(VmError::Exn(exn::OUT_OF_RANGE))
        );
        let l2 = run("cons", vec![Value::Int(0), l.clone()]).unwrap();
        assert_eq!(run("listLen", vec![l2.clone()]), Ok(Value::Int(3)));
        let r = run("listRev", vec![l2]).unwrap();
        assert_eq!(run("listGet", vec![r, Value::Int(0)]), Ok(Value::Int(2)));
        let cat = run("append", vec![l.clone(), l]).unwrap();
        assert_eq!(run("listLen", vec![cat]), Ok(Value::Int(4)));
    }

    #[test]
    fn env_and_io_ops() {
        let (print_id, _) = sig_table().lookup("println").unwrap();
        let (host_id, _) = sig_table().lookup("thisHost").unwrap();
        let (deliver_id, _) = sig_table().lookup("deliver").unwrap();
        let mut env = MockEnv::new(addr(10, 0, 0, 9));
        env.load = 123;
        assert_eq!(
            eval(host_id, &[], &mut env),
            Ok(Value::Host(addr(10, 0, 0, 9)))
        );
        let (load_id, _) = sig_table().lookup("linkLoad").unwrap();
        assert_eq!(
            eval(load_id, &[Value::Host(1)], &mut env),
            Ok(Value::Int(123))
        );
        eval(print_id, &[Value::Int(5)], &mut env).unwrap();
        assert_eq!(env.output, "5\n");
        let pkt = Value::tuple(vec![
            Value::Ip(IpHdr::new(1, 2, IpHdr::PROTO_UDP)),
            Value::Blob(Bytes::new()),
        ]);
        eval(deliver_id, &[pkt], &mut env).unwrap();
        assert_eq!(env.deliver_count(), 1);
        assert!(eval(deliver_id, &[Value::Unit], &mut env).is_err());
    }

    #[test]
    fn audio_prims_change_sizes() {
        let pcm = Value::Blob(Bytes::from(vec![0u8; 400]));
        let m = run("audioStereoToMono", vec![pcm.clone()]).unwrap();
        assert!(matches!(run("blobLen", vec![m]), Ok(Value::Int(200))));
        let d = run("audio16to8", vec![pcm]).unwrap();
        assert!(matches!(
            run("blobLen", vec![d.clone()]),
            Ok(Value::Int(200))
        ));
        let u = run("audio8to16", vec![d]).unwrap();
        assert!(matches!(run("blobLen", vec![u]), Ok(Value::Int(400))));
    }

    #[test]
    fn table_entries_of_accessors_and_setters_wrap_get_and_set() {
        let mut tcp = TcpHdr::data(1234, 80, 7);
        tcp.flags |= tcp_flags::SYN;
        let holders = [
            Value::Ip(IpHdr::new(addr(1, 2, 3, 4), addr(5, 6, 7, 8), 17)),
            Value::Tcp(tcp),
            Value::Udp(UdpHdr::new(5000, 6000)),
            Value::Blob(Bytes::from_static(b"abc")),
        ];
        let mut env = MockEnv::new(0);
        for (id, sig) in sig_table().iter() {
            let Some(access) = sig.access else { continue };
            for v in &holders {
                match access {
                    Access::Get(f) => {
                        let direct = get(f, v).map(|x| wrap(f, x));
                        assert_eq!(eval(id, std::slice::from_ref(v), &mut env), direct);
                        // Of the four holders, exactly the field's own is read.
                        let own = matches!(
                            (f.holder(), v),
                            (Type::Ip, Value::Ip(_))
                                | (Type::Tcp, Value::Tcp(_))
                                | (Type::Udp, Value::Udp(_))
                                | (Type::Blob, Value::Blob(_))
                        );
                        assert_eq!(direct.is_ok(), own, "{} of {v:?}", sig.name);
                    }
                    Access::Set(f) => {
                        for x in [Value::Int(8080), Value::Int(70_000), Value::Host(9)] {
                            let direct = operand(f, &x).and_then(|n| set(f, v, n));
                            assert_eq!(eval(id, &[v.clone(), x], &mut env), direct, "{}", sig.name);
                        }
                    }
                }
            }
        }
        // What the accessors return is of the field's type.
        assert_eq!(wrap(Field::IpDst, 9), Value::Host(9));
        assert_eq!(wrap(Field::TcpIsSyn, 1), Value::Bool(true));
        assert_eq!(wrap(Field::UdpDst, 6000), Value::Int(6000));
        // A host where a port goes, and a field nothing writes, trap.
        assert!(matches!(
            operand(Field::TcpSrc, &Value::Host(1)),
            Err(VmError::Trap(_))
        ));
        assert!(matches!(
            set(Field::IpTtl, &holders[0], 3),
            Err(VmError::Trap(_))
        ));
    }

    #[test]
    fn type_confusion_traps() {
        assert!(matches!(
            run("ipSrc", vec![Value::Int(1)]),
            Err(VmError::Trap(_))
        ));
        assert!(matches!(
            run("tblGet", vec![Value::Int(1), Value::Int(2)]),
            Err(VmError::Trap(_))
        ));
    }

    #[test]
    fn is_multicast_prim() {
        assert_eq!(
            run("isMulticast", vec![Value::Host(addr(224, 0, 0, 1))]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            run("isMulticast", vec![Value::Host(addr(10, 0, 0, 1))]),
            Ok(Value::Bool(false))
        );
    }
}
