//! The program generator: seeded PLAN-P programs, well typed by
//! construction, and the three-column differential that holds the
//! bytecode engine to the interpreter on them (Petr4's method: a
//! definitional interpreter plus a large generated corpus).
//!
//! [`source`] writes the channel body of `(seed, depth)` out of
//! everything the typed instruction selection of `planp_vm::jit` looks
//! at, over every transport a `PacketShape` can name: accessors and
//! setters on each header, `val` globals, `thisHost()`, literals,
//! `+ - * div mod` with zero divisors inside and outside `handle`, the
//! six comparisons on `int` and `char`, `=`/`<>` on `host`, `bool`,
//! `string` and pairs (the generic fallback), `andalso`/`orelse`/`not`,
//! nested `if`/`let`, ports out of range into setters, and
//! `OnRemote`/`OnNeighbor`/`deliver` of `p`, of a literal tuple and of a
//! computed value. Two programs in five keep a `(k, v) hash_table` as
//! channel state, keyed by `int`, `host`, `host*int`, `host*int*int` or
//! `string`, and use every table primitive on it (`tblGet` with and
//! without a `NotFound` handler); their keys are scalars, literal
//! tuples, computed tuples, `let`-bound tuples used only as keys and
//! projected, and `let`-bound tuples that are also used whole (which
//! must stay built).
//!
//! [`run`] meets each program with eight packets on the interpreter, on
//! the tuple-fed `run_channel` and on a register-fed frame
//! (`CompiledProgram::frame` + `PacketFrame::load`, as the layer runs
//! it); the three must agree on the result (or the error's identity),
//! the effects, the step total, the per-site trail *in order*, the send
//! sites, the table writes (`(inserted, entries)`, what the runtime's
//! `state_inserts`/`state_entries` counters are fed) and, after every
//! packet, the table's contents: its size and a lookup of every probe
//! key through the primitives, and its entries. Each program is also
//! verified, and every dispatch on every entry must stay within the
//! verifier's per-dispatch bounds of the overload: steps, `OnRemote` +
//! `OnNeighbor` sends and fresh table inserts. The bytecode entries hand
//! their sends a packet they may move from where a send is the last
//! read of `p` (`MockEnv` moves it), so a send marked wrongly shows as a
//! later read of an emptied register.
//!
//! A program is a function of `(seed, depth)` alone. A failure is
//! shrunk by regenerating the same seed at smaller depths and reports
//! the seed, the depth and the source. Two users share the module:
//! `tests/gen_differential.rs` (1 500 programs in a debug build, ten
//! times that in release) and the `gen` gate of `planp check`
//! ([`GATE_PROGRAMS`], run twice, so a generator that is not a function
//! of its seed fails itself).
//!
//! Not generated yet: user functions, timers, lists, fault plans (so
//! `List`, `Call` and `Flush` are the instruction kinds the coverage
//! assertion leaves out).

use netsim::rng::SplitMix64;
use planp_analysis::{verify, Policy};
use planp_lang::compile_front;
use planp_runtime::convert::{packet_to_parts, value_to_packet};
use planp_vm::env::{MockEnv, SendKind};
use planp_vm::interp::Interp;
use planp_vm::jit;
use planp_vm::pkthdr::{addr, IpHdr, TcpHdr, UdpHdr};
use planp_vm::prims::eval;
use planp_vm::value::{Value, VmError};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

// ---- the generator ---------------------------------------------------------

/// The types the generator writes expressions of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Char,
    Host,
    Str,
    /// `host*int`: an equality type that is not a scalar.
    Pair,
    /// `host*int*int`: the widest key held inline.
    Triple,
    Ip,
    Tcp,
    Udp,
    Blob,
    Unit,
    /// The channel state's `hash_table` ([`Gen::table`] says of what).
    Table,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Bool => "bool",
            Ty::Char => "char",
            Ty::Host => "host",
            Ty::Str => "string",
            Ty::Pair => "host*int",
            Ty::Triple => "host*int*int",
            Ty::Ip => "ip",
            Ty::Tcp => "tcp",
            Ty::Udp => "udp",
            Ty::Blob => "blob",
            Ty::Unit => "unit",
            Ty::Table => "hash_table",
        }
    }

    /// `#i` of a value of this type, for `i` in `1..`, if it is a key
    /// tuple's component of type `of`.
    fn projections(self, of: Ty) -> &'static [u32] {
        match (self, of) {
            (Ty::Pair | Ty::Triple, Ty::Host) => &[1],
            (Ty::Pair, Ty::Int) => &[2],
            (Ty::Triple, Ty::Int) => &[2, 3],
            _ => &[],
        }
    }
}

/// The node every program runs on (`thisHost()`); packets are often
/// addressed to it.
const HERE: u32 = addr(10, 0, 0, 2);

struct Gen {
    rng: SplitMix64,
    /// The packet parameter's components after `ip`: the transport
    /// header, if any, then the payload.
    parts: Vec<Ty>,
    ss: Ty,
    /// When `ss` is a table: its key and value types.
    table: Option<(Ty, Ty)>,
    /// `let`-bound variables in scope.
    vars: Vec<(String, Ty)>,
    /// `let`-bound key tuples in scope that are only ever used as a
    /// table key or projected.
    keys: Vec<(String, Ty)>,
    fresh: u32,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    fn has(&self, ty: Ty) -> bool {
        ty == Ty::Ip || self.parts.contains(&ty)
    }

    fn packet_type(&self) -> String {
        let parts = self.parts.iter().map(|t| format!("*{}", t.name()));
        format!("ip{}", parts.collect::<String>())
    }

    /// The channel state's type as written in the source.
    fn ss_type(&self) -> String {
        match self.table {
            Some((k, v)) => format!("({}, {}) hash_table", k.name(), v.name()),
            None => self.ss.name().into(),
        }
    }

    /// A type some expression can be written of here.
    fn any_type(&mut self) -> Ty {
        loop {
            let ty = [
                Ty::Int,
                Ty::Int,
                Ty::Bool,
                Ty::Char,
                Ty::Host,
                Ty::Host,
                Ty::Str,
                Ty::Pair,
                Ty::Ip,
                Ty::Tcp,
                Ty::Udp,
                Ty::Blob,
            ][self.below(12) as usize];
            if !matches!(ty, Ty::Tcp | Ty::Udp | Ty::Blob) || self.has(ty) {
                return ty;
            }
        }
    }

    fn leaf(&mut self, ty: Ty) -> String {
        let mut from: Vec<String> = Vec::new();
        from.extend(self.vars.iter().filter(|v| v.1 == ty).map(|v| v.0.clone()));
        for (name, of) in self.vars.iter().chain(&self.keys) {
            from.extend(of.projections(ty).iter().map(|i| format!("#{i} {name}")));
        }
        if ty == Ty::Ip {
            from.push("#1 p".into());
        }
        for (i, part) in self.parts.iter().enumerate() {
            if *part == ty {
                from.push(format!("#{} p", i + 2));
            }
        }
        let literals: &[&str] = match ty {
            Ty::Int => &[
                "ps", "ps", "gi", "gi", "0", "1", "2", "7", "80", "5555", "65535", "65536",
                "(0 - 3)",
            ],
            Ty::Bool => &["true", "false", "gb", "gb"],
            Ty::Char => &["#\"A\"", "#\"z\"", "gc", "gc"],
            Ty::Host => &[
                "10.0.0.1",
                "10.0.0.2",
                "gh",
                "gh",
                "thisHost()",
                "thisHost()",
                "thisHost()",
            ],
            Ty::Str => &["\"\"", "\"GET\"", "gs", "gs"],
            Ty::Unit => &["()"],
            Ty::Pair | Ty::Triple | Ty::Ip | Ty::Tcp | Ty::Udp | Ty::Blob | Ty::Table => &[],
        };
        from.extend(literals.iter().map(|s| s.to_string()));
        if ty == self.ss {
            from.push("ss".into());
        }
        if from.is_empty() {
            // Only a key tuple has neither a literal nor a component.
            return match ty {
                Ty::Triple => {
                    let (h, n, m) = (self.leaf(Ty::Host), self.leaf(Ty::Int), self.leaf(Ty::Int));
                    format!("({h}, {n}, {m})")
                }
                _ => format!("({}, {})", self.leaf(Ty::Host), self.leaf(Ty::Int)),
            };
        }
        let i = self.below(from.len() as u64) as usize;
        from.swap_remove(i)
    }

    /// `let val x : T = … in <body> end` around whatever `body` writes.
    fn let_in(&mut self, depth: u32, body: impl FnOnce(&mut Gen) -> String) -> String {
        let ty = self.any_type();
        let init = self.expr(ty, depth);
        let name = format!("x{}", self.fresh);
        self.fresh += 1;
        self.vars.push((name.clone(), ty));
        let body = body(self);
        self.vars.pop();
        format!("let val {name} : {} = {init} in {body} end", ty.name())
    }

    /// [`Gen::let_in`], or — where the table is keyed by a tuple — half
    /// the time a `let` of a literal key tuple: two times in three one
    /// that `body` may only use as a key or project, else one it may
    /// also use whole.
    fn some_let(&mut self, depth: u32, body: impl FnOnce(&mut Gen) -> String) -> String {
        let key = match self.table {
            Some((k @ (Ty::Pair | Ty::Triple), _)) if self.rng.next_below(2) == 0 => k,
            _ => return self.let_in(depth, body),
        };
        let mut items = vec![self.expr(Ty::Host, depth), self.expr(Ty::Int, depth)];
        if key == Ty::Triple {
            items.push(self.expr(Ty::Int, depth));
        }
        let name = format!("k{}", self.fresh);
        self.fresh += 1;
        let keys_only = self.below(3) != 0;
        let scope = if keys_only {
            &mut self.keys
        } else {
            &mut self.vars
        };
        scope.push((name.clone(), key));
        let body = body(self);
        if keys_only {
            self.keys.pop();
        } else {
            self.vars.pop();
        }
        let init = items.join(", ");
        format!("let val {name} : {} = ({init}) in {body} end", key.name())
    }

    /// A table key: a key tuple bound by [`Gen::some_let`] half the time
    /// there is one, else any expression of the key type.
    fn key(&mut self, d: u32) -> String {
        let (k, _) = self.table.expect("a table in scope");
        let bound: Vec<String> = self
            .keys
            .iter()
            .filter(|x| x.1 == k)
            .map(|x| x.0.clone())
            .collect();
        if !bound.is_empty() && self.below(2) == 0 {
            let i = self.below(bound.len() as u64) as usize;
            return bound[i].clone();
        }
        self.expr(k, d)
    }

    /// A read of the table, if one has type `ty`.
    fn table_read(&mut self, ty: Ty, d: u32) -> Option<String> {
        let (_, v) = self.table?;
        Some(match ty {
            Ty::Bool => {
                let has = format!("tblHas(ss, {})", self.key(d));
                match self.below(2) {
                    // Its value wanted, not just branched on.
                    0 => format!("({has} = {})", self.leaf(Ty::Bool)),
                    _ => has,
                }
            }
            Ty::Int if self.below(3) == 0 => "tblSize(ss)".into(),
            _ if ty == v => {
                let key = self.key(d);
                match self.below(4) {
                    // A miss raises out of the channel.
                    0 => format!("tblGet(ss, {key})"),
                    _ => format!("(tblGet(ss, {key}) handle NotFound => {})", self.leaf(v)),
                }
            }
            _ => return None,
        })
    }

    fn expr(&mut self, ty: Ty, depth: u32) -> String {
        if depth == 0 || self.below(4) == 0 {
            return self.leaf(ty);
        }
        let d = depth - 1;
        // The forms every type has.
        match self.below(10) {
            0 => {
                let (c, a, b) = (self.expr(Ty::Bool, d), self.expr(ty, d), self.expr(ty, d));
                return format!("(if {c} then {a} else {b})");
            }
            1 => return format!("({})", self.some_let(d, |g| g.expr(ty, d))),
            2..=4 if self.table.is_some() => {
                if let Some(read) = self.table_read(ty, d) {
                    return read;
                }
            }
            _ => {}
        }
        match ty {
            Ty::Int => match self.below(14) {
                0..=4 => {
                    let op = self.pick(&["+", "-", "*", "div", "mod"]);
                    let a = self.expr(Ty::Int, d);
                    // Zero divisors, written three ways.
                    let b = match (op, self.below(4)) {
                        ("div" | "mod", 0) => self.pick(&["0", "(ps - ps)", "(gi mod 1)"]).into(),
                        _ => self.expr(Ty::Int, d),
                    };
                    format!("({a} {op} {b})")
                }
                5..=7 => self.accessor(Ty::Int, d),
                8 => {
                    let exn = self.pick(&["Div", "OutOfRange", "_"]);
                    let (a, b) = (self.expr(Ty::Int, d), self.expr(Ty::Int, d));
                    format!("({a} handle {exn} => {b})")
                }
                9 => format!("(- {})", self.expr(Ty::Int, d)),
                10 => format!("charPos({})", self.expr(Ty::Char, d)),
                11 => match self.below(2) {
                    0 => format!("strLen({})", self.expr(Ty::Str, d)),
                    _ => {
                        let (a, b) = (self.expr(Ty::Str, d), self.expr(Ty::Str, d));
                        format!("strFind({a}, {b})")
                    }
                },
                12 => {
                    let (c, a) = (self.expr(Ty::Bool, d), self.expr(Ty::Int, d));
                    format!("(if {c} then {a} else raise Div)")
                }
                _ => self.leaf(Ty::Int),
            },
            Ty::Bool => match self.below(12) {
                0..=3 => {
                    let of = [Ty::Int, Ty::Int, Ty::Char][self.below(3) as usize];
                    let op = self.pick(&["=", "<>", "<", "<=", ">", ">="]);
                    let (a, b) = (self.expr(of, d), self.expr(of, d));
                    format!("({a} {op} {b})")
                }
                4..=6 => {
                    let of = [Ty::Host, Ty::Host, Ty::Bool, Ty::Str, Ty::Pair, Ty::Triple]
                        [self.below(6) as usize];
                    let op = self.pick(&["=", "<>"]);
                    let (a, b) = (self.expr(of, d), self.expr(of, d));
                    format!("({a} {op} {b})")
                }
                7 => {
                    let op = self.pick(&["andalso", "orelse"]);
                    let (a, b) = (self.expr(Ty::Bool, d), self.expr(Ty::Bool, d));
                    format!("({a} {op} {b})")
                }
                8 => format!("(not {})", self.expr(Ty::Bool, d)),
                9 => format!("isMulticast({})", self.expr(Ty::Host, d)),
                _ => self.accessor(Ty::Bool, d),
            },
            Ty::Char => match self.below(3) {
                0 => {
                    let (n, c) = (self.expr(Ty::Int, d), self.leaf(Ty::Char));
                    format!("(chr({n}) handle OutOfRange => {c})")
                }
                _ => self.leaf(Ty::Char),
            },
            Ty::Host => self.accessor(Ty::Host, d),
            Ty::Str => match self.below(3) {
                0 => {
                    let (a, b) = (self.expr(Ty::Str, d), self.expr(Ty::Str, d));
                    format!("({a} ^ {b})")
                }
                1 => format!("intToString({})", self.expr(Ty::Int, d)),
                _ => self.leaf(Ty::Str),
            },
            Ty::Pair => {
                let (h, n) = (self.expr(Ty::Host, d), self.expr(Ty::Int, d));
                format!("({h}, {n})")
            }
            Ty::Triple => {
                let (h, n, m) = (
                    self.expr(Ty::Host, d),
                    self.expr(Ty::Int, d),
                    self.expr(Ty::Int, d),
                );
                format!("({h}, {n}, {m})")
            }
            Ty::Ip => {
                let set = self.pick(&["ipSrcSet", "ipDestSet"]);
                let (h, x) = (self.expr(Ty::Ip, d), self.expr(Ty::Host, d));
                format!("{set}({h}, {x})")
            }
            Ty::Tcp | Ty::Udp => {
                let set = match ty {
                    Ty::Tcp => self.pick(&["tcpSrcSet", "tcpDstSet"]),
                    _ => self.pick(&["udpSrcSet", "udpDstSet"]),
                };
                // Any int: a port out of range raises `OutOfRange`.
                let (h, x) = (self.expr(ty, d), self.expr(Ty::Int, d));
                format!("{set}({h}, {x})")
            }
            Ty::Blob => {
                let b = self.expr(Ty::Blob, d);
                let (off, len) = (self.pick(&["0", "1", "2"]), self.pick(&["0", "1", "9"]));
                format!("blobSub({b}, {off}, {len})")
            }
            Ty::Unit | Ty::Table => self.leaf(ty),
        }
    }

    /// A scalar accessor of result type `ty` on some header in reach.
    fn accessor(&mut self, ty: Ty, d: u32) -> String {
        let mut from: Vec<(&str, Ty)> = match ty {
            Ty::Int => vec![("ipTtl", Ty::Ip), ("ipProto", Ty::Ip)],
            Ty::Host => vec![("ipSrc", Ty::Ip), ("ipDst", Ty::Ip)],
            _ => vec![],
        };
        let more: &[(&str, Ty)] = match ty {
            Ty::Int => &[
                ("tcpSrc", Ty::Tcp),
                ("tcpDst", Ty::Tcp),
                ("tcpSeq", Ty::Tcp),
                ("tcpAck", Ty::Tcp),
                ("udpSrc", Ty::Udp),
                ("udpDst", Ty::Udp),
                ("blobLen", Ty::Blob),
            ],
            Ty::Bool => &[
                ("tcpIsSyn", Ty::Tcp),
                ("tcpIsFin", Ty::Tcp),
                ("tcpIsAck", Ty::Tcp),
                ("tcpIsRst", Ty::Tcp),
            ],
            _ => &[],
        };
        from.extend(more.iter().filter(|(_, of)| self.has(*of)));
        if from.is_empty() {
            return self.leaf(ty);
        }
        let (get, of) = from[self.below(from.len() as u64) as usize];
        format!("{get}({})", self.expr(of, d))
    }

    /// The packet of a send: the parameter, a literal tuple, or a value
    /// some other expression computed.
    fn packet(&mut self, depth: u32) -> String {
        match self.below(5) {
            0 | 1 => "p".into(),
            2 | 3 => self.literal_packet(depth),
            _ => {
                let (c, lit) = (self.expr(Ty::Bool, depth), self.literal_packet(depth));
                format!("(if {c} then p else {lit})")
            }
        }
    }

    fn literal_packet(&mut self, depth: u32) -> String {
        let parts = self.parts.clone();
        let items = std::iter::once(Ty::Ip).chain(parts);
        let items: Vec<String> = items.map(|ty| self.expr(ty, depth)).collect();
        format!("({})", items.join(", "))
    }

    fn effect(&mut self, depth: u32) -> String {
        if let Some((_, v)) = self.table.filter(|_| self.below(2) == 0) {
            let write = match self.below(9) {
                0..=4 => {
                    let (k, x) = (self.key(depth), self.expr(v, depth));
                    format!("tblSet(ss, {k}, {x})")
                }
                5..=7 => format!("tblDel(ss, {})", self.key(depth)),
                _ => "tblClear(ss)".into(),
            };
            return match self.below(4) {
                0 => format!("(if {} then {write} else ())", self.expr(Ty::Bool, depth)),
                _ => write,
            };
        }
        let send = match self.below(7) {
            0 | 1 => format!("OnRemote(network, {})", self.packet(depth)),
            2 | 3 => {
                let (h, p) = (self.expr(Ty::Host, depth), self.packet(depth));
                format!("OnNeighbor(network, {h}, {p})")
            }
            4 | 5 => format!("deliver({})", self.packet(depth)),
            _ => {
                let ty = [Ty::Int, Ty::Bool, Ty::Host, Ty::Str, Ty::Pair, Ty::Triple]
                    [self.below(6) as usize];
                return format!("println({})", self.expr(ty, depth));
            }
        };
        match self.below(3) {
            0 => format!("(if {} then {send} else ())", self.expr(Ty::Bool, depth)),
            _ => send,
        }
    }

    /// A channel body: evaluates to `(ps', ss')`.
    fn body(&mut self, depth: u32) -> String {
        let d = depth.saturating_sub(1);
        match self.below(if depth == 0 { 1 } else { 8 }) {
            0..=3 => {
                let effects: Vec<String> = (0..self.below(4)).map(|_| self.effect(d)).collect();
                let (ps, ss) = (self.expr(Ty::Int, depth), self.expr(self.ss, depth));
                let seq: String = effects.iter().map(|e| format!("{e}; ")).collect();
                // One tail in five returns a pair some `let` built.
                match self.below(5) {
                    0 => {
                        let ty = format!("int*{}", self.ss_type());
                        format!("({seq}let val r : {ty} = ({ps}, {ss}) in r end)")
                    }
                    _ => format!("({seq}({ps}, {ss}))"),
                }
            }
            4 | 5 => {
                let (c, a, b) = (self.expr(Ty::Bool, depth), self.body(d), self.body(d));
                format!("if {c} then {a} else {b}")
            }
            6 => self.some_let(depth, |g| g.body(d)),
            _ => {
                let exn = self.pick(&["Div", "OutOfRange", "_"]);
                let (a, b) = (self.body(d), self.body(0));
                format!("({a} handle {exn} => {b})")
            }
        }
    }
}

/// The PLAN-P source of the program of `(seed, depth)`.
pub fn source(seed: u64, depth: u32) -> String {
    program(seed, depth).0
}

/// The program of `(seed, depth)`, and its packet parameter's
/// components after `ip`.
fn program(seed: u64, depth: u32) -> (String, Vec<Ty>) {
    let mut rng = SplitMix64::new(0x6E4_D1FF ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut parts = match rng.next_below(3) {
        0 => vec![Ty::Tcp],
        1 => vec![Ty::Udp],
        _ => vec![],
    };
    let payloads: [&[Ty]; 6] = [
        &[Ty::Blob],
        &[Ty::Blob],
        &[Ty::Char, Ty::Int],
        &[Ty::Int, Ty::Bool, Ty::Blob],
        &[Ty::Host, Ty::Str],
        &[Ty::Str, Ty::Char, Ty::Host, Ty::Blob],
    ];
    parts.extend(payloads[rng.next_below(6) as usize]);
    let ss = [Ty::Unit, Ty::Int, Ty::Bool, Ty::Table, Ty::Table][rng.next_below(5) as usize];
    let table = (ss == Ty::Table).then(|| {
        let k =
            [Ty::Int, Ty::Host, Ty::Pair, Ty::Triple, Ty::Str, Ty::Str][rng.next_below(6) as usize];
        (k, [Ty::Int, Ty::Host][rng.next_below(2) as usize])
    });
    let gi = ["5555", "80", "0", "7 * 11 + 3", "65535 + 1"][rng.next_below(5) as usize];
    let gh = ["10.0.0.2", "10.0.0.1", "224.0.0.1"][rng.next_below(3) as usize];
    let mut gen = Gen {
        rng,
        parts,
        ss,
        table,
        vars: Vec::new(),
        keys: Vec::new(),
        fresh: 0,
    };
    let body = gen.body(depth);
    let src = format!(
        "val gi : int = {gi}\nval gh : host = {gh}\nval gc : char = #\"M\"\n\
         val gb : bool = {}\nval gs : string = \"GET\"\n\
         channel network(ps : int, ss : {}, p : {}){} is\n{body}\n",
        seed.is_multiple_of(2),
        gen.ss_type(),
        gen.packet_type(),
        if table.is_some() {
            " initstate mkTable(8)"
        } else {
            ""
        },
    );
    (src, gen.parts)
}

/// Keys every table is probed with after each packet: values of every
/// key type, drawn from the pools the packets and the programs' literals
/// draw from, so that some of them hit.
fn probe_keys() -> Vec<Value> {
    let hosts = [
        HERE,
        addr(10, 0, 0, 1),
        addr(224, 0, 0, 1),
        addr(10, 0, 3, 9),
    ];
    let ints = [0, 1, 7, 80, 5555, 65535];
    let mut keys: Vec<Value> = ["", "GET", "GETGET"].map(Value::str).into();
    for &h in &hosts {
        keys.push(Value::Host(h));
        for &n in &ints {
            keys.push(Value::tuple(vec![Value::Host(h), Value::Int(n)]));
            keys.push(Value::tuple(vec![
                Value::Host(h),
                Value::Int(n),
                Value::Int(n),
            ]));
            keys.push(Value::tuple(vec![
                Value::Host(h),
                Value::Int(n),
                Value::Int(0),
            ]));
        }
    }
    keys.extend(ints.map(Value::Int));
    keys
}

/// What a table holds, read back through the primitives — its size and
/// what `tblHas` and `tblGet` say of each probe key — followed by its
/// entries, sorted. `None` for state that is not a table.
fn table_view(ss: &Value, probes: &[Value]) -> Option<Vec<String>> {
    let Value::Table(t) = ss else { return None };
    let prim = |name| {
        planp_lang::prims::table()
            .lookup(name)
            .expect("a table primitive")
            .0
    };
    let mut env = MockEnv::new(HERE);
    let size = eval(prim("tblSize"), std::slice::from_ref(ss), &mut env);
    let mut view = vec![format!("{size:?}")];
    for k in probes {
        let args = [ss.clone(), k.clone()];
        let has = eval(prim("tblHas"), &args, &mut env);
        let got = eval(prim("tblGet"), &args, &mut env);
        view.push(format!("{k}: {has:?} {got:?}"));
    }
    let entries = t.borrow().entries();
    view.extend(entries.iter().map(|(k, v)| format!("{k:?} = {v}")));
    Some(view)
}

/// A packet of the shape `parts` names, fields drawn from small pools
/// so that the programs' equality tests go both ways.
fn packet(parts: &[Ty], rng: &mut SplitMix64) -> Value {
    let host = |rng: &mut SplitMix64| {
        [
            HERE,
            addr(10, 0, 0, 1),
            addr(224, 0, 0, 1),
            addr(10, 0, 3, 9),
        ][rng.next_below(4) as usize]
    };
    let port = |rng: &mut SplitMix64| match rng.next_below(5) {
        0 => 0,
        1 => 80,
        2 => 5555,
        3 => 65535,
        _ => rng.next_u64() as u16,
    };
    let proto = match parts.first() {
        Some(Ty::Tcp) => IpHdr::PROTO_TCP,
        Some(Ty::Udp) => IpHdr::PROTO_UDP,
        _ => 0,
    };
    let mut ip = IpHdr::new(host(rng), host(rng), proto);
    ip.ttl = [64, 1, 0, 7][rng.next_below(4) as usize];
    let mut out = vec![Value::Ip(ip)];
    for ty in parts {
        out.push(match ty {
            Ty::Tcp => {
                let mut h = TcpHdr::data(port(rng), port(rng), rng.next_below(9) as u32);
                h.ack = rng.next_below(3) as u32;
                h.flags = rng.next_u64() as u8 & 0x1f;
                Value::Tcp(h)
            }
            Ty::Udp => Value::Udp(UdpHdr::new(port(rng), port(rng))),
            Ty::Int => Value::Int(match rng.next_below(6) {
                0 => 0,
                1 => -1,
                2 => 65_536,
                3 => i64::MIN,
                4 => 5555,
                _ => rng.next_below(200) as i64 - 100,
            }),
            Ty::Bool => Value::Bool(rng.next_below(2) == 1),
            Ty::Char => Value::Char(['A', 'M', 'z', '\0'][rng.next_below(4) as usize]),
            Ty::Host => Value::Host(host(rng)),
            Ty::Str => Value::str(["", "GET", "GET /doc/7"][rng.next_below(3) as usize]),
            Ty::Blob => Value::Blob(vec![7u8; rng.next_below(12) as usize].into()),
            Ty::Pair | Ty::Triple | Ty::Ip | Ty::Unit | Ty::Table => {
                unreachable!("not a packet component")
            }
        });
    }
    Value::tuple(out)
}

// ---- the three-column differential -----------------------------------------

/// What one program's eight dispatches exercised.
struct Seen {
    /// Instruction kinds the program compiled to.
    kinds: Vec<&'static str>,
    dispatches: u64,
    raised: u64,
    effects: u64,
    table_writes: u64,
    /// Dispatches whose steps met the static step bound exactly.
    at_bound: u64,
}

fn same<T: PartialEq + Debug>(what: &str, interp: &T, bytecode: &T) -> Result<(), String> {
    if interp == bytecode {
        return Ok(());
    }
    Err(format!(
        "{what} differ\n  interpreter: {interp:?}\n  bytecode:    {bytecode:?}"
    ))
}

/// Generates the program of `(seed, depth)` and holds the two bytecode
/// entries to the interpreter on eight packets.
fn check(seed: u64, depth: u32) -> Result<Seen, String> {
    let (src, parts) = program(seed, depth);
    let fail = |why: String| format!("seed {seed} depth {depth}: {why}\n{src}");
    let prog = compile_front(&src).map_err(|e| fail(format!("not well typed: {e}")))?;
    let prog = Rc::new(prog);
    let (compiled, _) = jit::compile(prog.clone());
    let interp = Interp::new(&prog);
    let shape = &prog.channels[0].shape;

    // Interpreter, tuple-fed bytecode, register-fed bytecode.
    let mut envs = [MockEnv::new(HERE), MockEnv::new(HERE), MockEnv::new(HERE)];
    let gi = interp.eval_globals(&mut envs[0]);
    let gi = gi.map_err(|e| fail(format!("globals: {e}")))?;
    let gj = compiled.eval_globals(&mut envs[1]);
    let gj = gj.map_err(|e| fail(format!("globals: {e}")))?;
    // Each column threads its own state — its own table — from
    // dispatch to dispatch.
    let ps0 = Value::Int(seed as i64 % 5 - 1);
    let ssi = interp.init_channel_state(0, &gi, &mut envs[0]);
    let ssj = compiled.init_channel_state(0, &gj, &mut envs[1]);
    let ssr = compiled.init_channel_state(0, &gj, &mut envs[2]);
    same(
        "initializer trails",
        &envs[0].site_steps,
        &envs[1].site_steps,
    )
    .map_err(&fail)?;
    let init = |ss: Result<Value, VmError>| {
        let ss = ss.map_err(|e| fail(format!("initstate: {e}")))?;
        Ok::<_, String>((ps0.clone(), ss))
    };
    let mut states = [init(ssi)?, init(ssj)?, init(ssr)?];
    let probes = probe_keys();
    // The verifier's per-dispatch bounds of the one overload.
    let report = verify(&prog, Policy::authenticated());
    let bound = report.cost.channels[0].bound;
    let inserts = report.state_effects.inserts_for(0);

    let mut rng = SplitMix64::new(seed ^ 0xD15_9A7C);
    let mut seen = Seen {
        kinds: compiled.instruction_census().iter().map(|c| c.0).collect(),
        dispatches: 0,
        raised: 0,
        effects: 0,
        table_writes: 0,
        at_bound: 0,
    };
    for n in 0..8 {
        let pkt = packet(&parts, &mut rng);
        for env in &mut envs {
            env.steps = 0;
            env.site_steps.clear();
            env.send_sites.clear();
            env.effects.clear();
            env.output.clear();
            env.table_writes.clear();
        }
        let wire = value_to_packet(&pkt, None).map_err(|e| fail(format!("packet: {e}")))?;
        let [ei, ej, er] = &mut envs;
        let (ps, ss) = states[0].clone();
        let ri = interp.run_channel(0, &gi, ps, ss, pkt.clone(), ei);
        let (ps, ss) = states[1].clone();
        let rj = compiled.run_channel(0, &gj, ps, ss, pkt, ej);
        let (mut ps, mut ss) = states[2].clone();
        let mut frame = compiled.frame();
        if !frame.load(0, |regs| packet_to_parts(&wire, shape, regs)) {
            return Err(fail(format!(
                "packet {n} does not decode against its own shape"
            )));
        }
        let rr = frame.run(&gj, &mut ps, &mut ss, er).map(|()| (ps, ss));
        drop(frame);
        // What each engine observed is within what the verifier bounds
        // per dispatch of the overload, on every path, raising or not.
        for (engine, env) in [
            ("interpreter", &*ei),
            ("run_channel", &*ej),
            ("register-fed", &*er),
        ] {
            // The send bound counts `OnRemote` and `OnNeighbor`.
            let sends = env.send_sites.iter().filter(|s| s.0 != SendKind::Deliver);
            let observed = [
                ("steps", env.steps, bound.steps),
                ("sends", sends.count() as u64, bound.sends),
                ("fresh inserts", env.insert_count(), inserts),
            ];
            for (what, seen, bound) in observed {
                if seen > bound {
                    return Err(fail(format!(
                        "packet {n}, {engine}: {seen} {what} over the static bound {bound}"
                    )));
                }
            }
        }
        seen.at_bound += u64::from(ei.steps == bound.steps);

        let shown =
            |r: &Result<(Value, Value), VmError>| r.clone().map(|(ps, ss)| format!("{ps} {ss}"));
        for (entry, got, env, col) in [
            ("run_channel", &rj, &*ej, 1),
            ("register-fed", &rr, &*er, 2),
        ] {
            let ctx = |what: &str| format!("packet {n}, {entry}: {what}");
            same(&ctx("results"), &shown(&ri), &shown(got))
                .and_then(|()| same(&ctx("step totals"), &ei.steps, &env.steps))
                .and_then(|()| same(&ctx("site trails"), &ei.site_steps, &env.site_steps))
                .and_then(|()| same(&ctx("send sites"), &ei.send_sites, &env.send_sites))
                .and_then(|()| same(&ctx("output"), &ei.output, &env.output))
                .and_then(|()| {
                    let effects = |e: &MockEnv| format!("{:?}", e.effects);
                    same(&ctx("effects"), &effects(ei), &effects(env))
                })
                .and_then(|()| {
                    let attributed: u64 = env.site_steps.iter().map(|s| s.1).sum();
                    same(&ctx("Σ per-site and aggregate"), &env.steps, &attributed)
                })
                .map_err(&fail)?;
            if let Ok(next) = got {
                states[col] = next.clone();
            }
        }
        seen.dispatches += 1;
        seen.raised += u64::from(ri.is_err());
        seen.effects += ei.effects.len() as u64;
        seen.table_writes += ei.table_writes.len() as u64;
        if let Ok(next) = ri {
            states[0] = next;
        }
        // What a table holds after the packet, whether the dispatch
        // raised or not (a write before a raise stays written).
        let view = table_view(&states[0].1, &probes);
        for (entry, env, col) in [("run_channel", &*ej, 1), ("register-fed", &*er, 2)] {
            let ctx = |what: &str| format!("packet {n}, {entry}: {what}");
            same(&ctx("table writes"), &ei.table_writes, &env.table_writes)
                .and_then(|()| same(&ctx("tables"), &view, &table_view(&states[col].1, &probes)))
                .map_err(&fail)?;
        }
    }
    Ok(seen)
}

/// [`check`], with a panic in an engine reported like a disagreement.
fn check_caught(seed: u64, depth: u32) -> Result<Seen, String> {
    std::panic::catch_unwind(|| check(seed, depth)).unwrap_or_else(|_| {
        let (src, _) = program(seed, depth);
        Err(format!(
            "seed {seed} depth {depth}: an engine panicked\n{src}"
        ))
    })
}

/// Instruction kinds the generated corpus must reach: every typed form
/// it can compile to ([`GENERIC`] lists the generic fallbacks).
pub const TYPED: &[&str] = &[
    "ScalarOp",
    "Unop",
    "Get",
    "Set",
    "Br",
    "BrScalarCmp",
    "TblGet",
    "TblHas",
    "TblSet",
    "TblDel",
    "BrTblHas",
];
/// The generic fallbacks among the kinds the corpus must reach.
pub const GENERIC: &[&str] = &[
    "TblGetBoxed",
    "TblHasBoxed",
    "TblSetBoxed",
    "TblDelBoxed",
    "BrTblHasBoxed",
    "Binop",
    "BrCmp",
    "BrPrim",
    "Prim1",
    "Prim3",
    "PrimN",
    "Move",
    "Tuple",
    "Raise",
    "Jump",
    "SendRemote",
    "SendNeighbor",
    "Deliver",
    "Ret",
    "RetPair",
    "Ret2",
    "Prim2",
];

/// Programs the `gen` gate of `planp check` runs (each twice): a fixed
/// budget that finishes in a second in a debug build.
pub const GATE_PROGRAMS: u64 = 200;

/// What a budget of generated programs exercised, summed over programs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Programs generated and checked.
    pub programs: u64,
    /// Dispatches, eight per program.
    pub dispatches: u64,
    /// Dispatches that raised.
    pub raised: u64,
    /// Effects the interpreter recorded.
    pub effects: u64,
    /// Table writes the interpreter recorded.
    pub table_writes: u64,
    /// Dispatches whose steps met the static step bound exactly.
    pub at_bound: u64,
    /// Programs per instruction kind compiled to.
    pub emitted: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// The tally as byte-stable text: the totals, then programs per
    /// instruction kind, one line each.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} programs, {} dispatches: {} raised, {} effects, {} table writes, \
             {} at the static step bound\n",
            self.programs,
            self.dispatches,
            self.raised,
            self.effects,
            self.table_writes,
            self.at_bound
        );
        for (kind, n) in &self.emitted {
            out.push_str(&format!("  {kind:<14} {n}\n"));
        }
        out
    }
}

/// Generates and checks the programs of seeds `0..programs` (seed `s`
/// at depth `1 + s % 4`). The first failure is shrunk to the smallest
/// depth of its seed that still fails and returned with its source.
pub fn run(programs: u64) -> Result<Tally, String> {
    let mut tally = Tally {
        programs,
        ..Tally::default()
    };
    for seed in 0..programs {
        let depth = 1 + (seed % 4) as u32;
        let seen = check_caught(seed, depth).map_err(|why| {
            let smaller = (0..depth).find_map(|d| check_caught(seed, d).err());
            smaller.unwrap_or(why)
        })?;
        for kind in seen.kinds {
            *tally.emitted.entry(kind).or_insert(0) += 1;
        }
        tally.dispatches += seen.dispatches;
        tally.raised += seen.raised;
        tally.effects += seen.effects;
        tally.table_writes += seen.table_writes;
        tally.at_bound += seen.at_bound;
    }
    Ok(tally)
}
