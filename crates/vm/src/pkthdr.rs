//! Packet header values and the typed-payload codec.
//!
//! PLAN-P channels match packets by type (`ip*tcp*blob`,
//! `ip*tcp*char*int`, …). The runtime decodes an arriving packet's
//! payload against each overload's payload component types; the first
//! overload whose decode succeeds receives the packet (section 2.3's
//! overloaded channels).
//!
//! Wire encodings (big-endian network order):
//!
//! | component | encoding                        |
//! |-----------|---------------------------------|
//! | `char`    | 1 byte                          |
//! | `bool`    | 1 byte, `0` or `1`              |
//! | `int`     | 8 bytes, two's complement       |
//! | `host`    | 4 bytes                         |
//! | `string`  | 2-byte length + UTF-8 bytes     |
//! | `blob`    | the uninterpreted rest (last)   |

use crate::value::Value;
use bytes::{BufMut, Bytes, BytesMut};
use planp_lang::types::Type;

pub use netsim::packet::{addr, addr_to_string, tcp_flags, IpHdr, TcpHdr, UdpHdr};

/// Decodes `payload` against the payload component `types` of a packet
/// shape. Returns `None` if the payload does not match (wrong length,
/// bad bool, bad UTF-8…). The decoded values are in component order.
pub fn decode_payload(types: &[Type], payload: &Bytes) -> Option<Vec<Value>> {
    let mut out = vec![Value::Unit; types.len()];
    decode_payload_into(types, payload, &mut out).then_some(out)
}

/// [`decode_payload`] into a caller's slots, one per component of
/// `types` — registers of the bytecode engine, when the runtime decodes
/// an arriving packet. Returns `false` if the payload does not match;
/// the slots then hold whichever components decoded before the mismatch.
///
/// # Panics
///
/// Panics if `out` has fewer slots than `types` has components.
pub fn decode_payload_into(types: &[Type], payload: &Bytes, out: &mut [Value]) -> bool {
    decode_components(types, payload, &mut out[..types.len()]).is_some()
}

fn decode_components(types: &[Type], payload: &Bytes, out: &mut [Value]) -> Option<()> {
    let mut off = 0usize;
    for (i, (t, slot)) in types.iter().zip(out).enumerate() {
        let last = i + 1 == types.len();
        match t {
            Type::Blob => {
                debug_assert!(last, "blob is only valid as the final component");
                *slot = Value::Blob(payload.slice(off..));
                off = payload.len();
            }
            Type::Char => {
                let b = *payload.get(off)?;
                *slot = Value::Char(b as char);
                off += 1;
            }
            Type::Bool => {
                let b = *payload.get(off)?;
                if b > 1 {
                    return None;
                }
                *slot = Value::Bool(b == 1);
                off += 1;
            }
            Type::Int => {
                let bytes = payload.get(off..off + 8)?;
                *slot = Value::Int(i64::from_be_bytes(bytes.try_into().ok()?));
                off += 8;
            }
            Type::Host => {
                let bytes = payload.get(off..off + 4)?;
                *slot = Value::Host(u32::from_be_bytes(bytes.try_into().ok()?));
                off += 4;
            }
            Type::Str => {
                let lb = payload.get(off..off + 2)?;
                let len = u16::from_be_bytes(lb.try_into().ok()?) as usize;
                let bytes = payload.get(off + 2..off + 2 + len)?;
                let s = std::str::from_utf8(bytes).ok()?;
                *slot = Value::Str(s.into());
                off += 2 + len;
            }
            other => {
                debug_assert!(false, "invalid payload component type {other}");
                return None;
            }
        }
    }
    // Unless a trailing blob consumed the rest, require an exact fit so
    // that overload dispatch is unambiguous.
    (off == payload.len()).then_some(())
}

/// Encodes payload component values back into wire bytes. The inverse of
/// [`decode_payload`] for values of valid payload types; `None` for a
/// value with no wire form: a string longer than its 2-byte length can
/// say (a program can build one), or a value that is not a payload
/// component (ruled out by the type checker for well-typed programs).
pub fn encode_payload(values: &[Value]) -> Option<Bytes> {
    let mut buf = BytesMut::new();
    for v in values {
        match v {
            Value::Blob(b) => buf.put_slice(b),
            Value::Char(c) => buf.put_u8(*c as u8),
            Value::Bool(b) => buf.put_u8(*b as u8),
            Value::Int(n) => buf.put_i64(*n),
            Value::Host(h) => buf.put_u32(*h),
            Value::Str(s) => {
                buf.put_u16(u16::try_from(s.len()).ok()?);
                buf.put_slice(s.as_bytes());
            }
            _ => return None,
        }
    }
    Some(buf.freeze())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trip() {
        let a = addr(131, 254, 60, 81);
        assert_eq!(addr_to_string(a), "131.254.60.81");
    }

    #[test]
    fn multicast_detection() {
        assert!(IpHdr::new(0, addr(224, 0, 0, 5), IpHdr::PROTO_UDP).is_multicast());
        assert!(IpHdr::new(0, addr(239, 255, 0, 1), IpHdr::PROTO_UDP).is_multicast());
        assert!(!IpHdr::new(0, addr(10, 0, 0, 1), IpHdr::PROTO_UDP).is_multicast());
    }

    #[test]
    fn tcp_flag_tests() {
        let h = TcpHdr {
            flags: tcp_flags::SYN | tcp_flags::ACK,
            ..TcpHdr::data(1, 2, 0)
        };
        assert!(h.has(tcp_flags::SYN));
        assert!(h.has(tcp_flags::ACK));
        assert!(!h.has(tcp_flags::FIN));
    }

    #[test]
    fn payload_round_trip_scalars() {
        let vals = vec![
            Value::Char('A'),
            Value::Int(-42),
            Value::Host(addr(10, 0, 0, 1)),
            Value::Bool(true),
            Value::Str("hello".into()),
        ];
        let types = vec![Type::Char, Type::Int, Type::Host, Type::Bool, Type::Str];
        let bytes = encode_payload(&vals).unwrap();
        let decoded = decode_payload(&types, &bytes).unwrap();
        assert_eq!(format!("{decoded:?}"), format!("{vals:?}"));
    }

    #[test]
    fn payload_with_trailing_blob() {
        let vals = vec![Value::Char('X'), Value::Blob(Bytes::from_static(b"rest"))];
        let types = vec![Type::Char, Type::Blob];
        let bytes = encode_payload(&vals).unwrap();
        let decoded = decode_payload(&types, &bytes).unwrap();
        let Value::Blob(b) = &decoded[1] else {
            panic!()
        };
        assert_eq!(&b[..], b"rest");
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let types = vec![Type::Int];
        assert!(decode_payload(&types, &Bytes::from_static(b"abc")).is_none());
        // Trailing unconsumed bytes without a blob are a mismatch.
        let bytes = encode_payload(&[Value::Int(1), Value::Int(2)]).unwrap();
        assert!(decode_payload(&types, &bytes).is_none());
    }

    #[test]
    fn decode_rejects_bad_bool_and_utf8() {
        assert!(decode_payload(&[Type::Bool], &Bytes::from_static(&[7])).is_none());
        let mut raw = vec![0u8, 2]; // length 2
        raw.extend_from_slice(&[0xff, 0xfe]); // invalid UTF-8
        assert!(decode_payload(&[Type::Str], &Bytes::from(raw)).is_none());
    }

    #[test]
    fn blob_only_payload() {
        let b = Bytes::from_static(b"raw bytes");
        let decoded = decode_payload(&[Type::Blob], &b).unwrap();
        let Value::Blob(out) = &decoded[0] else {
            panic!()
        };
        assert_eq!(out, &b);
    }
}
