//! A state table costs what its entries hold: filling the HTTP
//! gateway's connection table, `((host*int), host) hash_table` made by
//! `mkTable(256)`, with 32 768 distinct connections through
//! `prims::tbl_set` asks the allocator for at most the pinned number of
//! bytes (every resize counted at its whole new size). Counted with a
//! `#[global_allocator]`.
//!
//! At commit e232562, where every table was a map from `Key` to
//! `Value` with a 72-byte bucket (a 40-byte key, a 32-byte value), the
//! fill asked for 9 531 584 bytes: 512 buckets for the hint, doubled
//! seven times to 65 536, and a control byte each. A table whose keys
//! are scalars or pairs of them and whose values are scalars keeps an
//! entry in 24 bytes and its key shape and value type once: the same
//! buckets ask for the pinned 3 264 720, 66% fewer. A change
//! that makes an entry larger fails here and prints the count.

use netsim::packet::addr;
use planp_lang::types::Type;
use planp_vm::prims::{eval, tbl_set};
use planp_vm::value::{Key, KeyShape, Value};
use planp_vm::MockEnv;

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// Connections filed.
const CONNECTIONS: u32 = 32_768;

/// Bytes the fill may ask for.
const PIN: u64 = 3_264_720;

#[test]
fn a_connection_table_asks_for_no_more_bytes_than_pinned() {
    let mk_table = planp_lang::prims::table()
        .lookup("mkTable")
        .expect("mkTable")
        .0;
    let shape = KeyShape::of(&Type::Tuple([Type::Host, Type::Int].into())).expect("inline");
    let mut env = MockEnv::new(addr(10, 0, 0, 254));
    env.table_writes.reserve(CONNECTIONS as usize);
    let before = counting_alloc::bytes();
    let t = eval(mk_table, &[Value::Int(256)], &mut env).expect("a table");
    for i in 0..CONNECTIONS {
        // `(client, port)` → server, as the gateway files a connection.
        let key = Key::Inline(
            shape,
            [
                u64::from(addr(10, 1, 0, 0) + (i >> 8)),
                u64::from(1024 + (i & 0xFF)),
                0,
            ],
        );
        let server = Value::Host(addr(10, 0, 2 + (i % 2) as u8, 1));
        tbl_set(&t, key, server, &mut env).expect("tblSet");
    }
    let bytes = counting_alloc::bytes() - before;
    assert_eq!(env.table_writes.last(), Some(&(1, u64::from(CONNECTIONS))));
    println!("{CONNECTIONS} connections: {bytes} bytes asked for (pin {PIN})");
    assert!(bytes <= PIN, "{bytes} bytes, above the pin of {PIN}");
}
