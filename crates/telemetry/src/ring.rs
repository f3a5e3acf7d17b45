//! The events a [`TraceLog`] holds, kept as bytes.
//!
//! A held event is a tag byte — its row of the event table
//! (`event_table!` in `event.rs`) — followed by each field of that row
//! as an unsigned LEB128 number:
//!
//! * `t_ns` and the packet id are zigzag differences from the previous
//!   event's values in the same block (each block starts from 0), so a
//!   clock that moves forward costs a byte or two, and a clock or a
//!   packet id that runs backwards still comes back as it went in;
//! * a string is an id into the ring's name table ([`Names`]), which is
//!   keyed by content, so a name costs its text once however many `Rc`s
//!   of it the callers make;
//! * an optional number or string is 0 for `None` and 1 + the number or
//!   id for `Some`, a flag is 0 or 1, and an enum its place in its `ALL`.
//!
//! The encoder and the decoder are generated from the one event table,
//! so a new event is still one row, and the encoder sums the event's
//! [`TraceEvent::est_bytes`] in the same pass.
//!
//! The bytes sit in blocks of [`BLOCK`] bytes. An event never straddles
//! two blocks and the differences restart at each block, so evicting an
//! event only counts it as skipped at the front of the oldest block.
//! Once the blocks after that one still hold every kept event, the
//! whole block is dropped — nothing is decoded — and kept as a spare
//! for the next block the tail needs, so a ring that has turned over
//! once pushes without calling the allocator.
//!
//! [`TraceLog`]: crate::TraceLog

use crate::event::{
    event_table, BreakerState, DispatchOutcome, DropReason, SpanOrigin, TraceEvent,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Bytes in one block.
const BLOCK: usize = 4096;

/// The fields of the widest row of the event table.
macro_rules! widest {
    (; $($variant:ident $tag:literal $base:literal { $($field:ident: $kind:ident),* })*) => {{
        let mut most = 0;
        $(
            let fields = [$(stringify!($field)),*].len();
            if fields > most {
                most = fields;
            }
        )*
        most
    }};
}

/// The most bytes one event takes: its tag, and at most ten bytes (a
/// `u64` in LEB128) for each field of the widest row.
const MAX_EVENT: usize = 1 + 10 * event_table!(widest!());

// What the ring stores: blocks of 24 bytes of bookkeeping each, and
// room in every block for at least 50 of the widest events.
const _: () = assert!(std::mem::size_of::<Block>() <= 24);
const _: () = assert!(BLOCK >= 50 * MAX_EVENT);

/// An event's row of the event table, as its first byte.
macro_rules! tags {
    (; $($variant:ident $tag:literal $base:literal { $($field:ident: $kind:ident),* })*) => {
        /// An event's row of the event table: its first byte.
        #[derive(Clone, Copy)]
        enum Tag {
            $($variant),*
        }

        /// Every tag, at the place its byte names.
        const TAGS: &[Tag] = &[$(Tag::$variant),*];
    };
}
event_table!(tags!());

/// A fieldless enum, stored as its place in `ALL`.
trait Code: Copy + 'static {
    /// Every value, in declaration order.
    const ALL: &'static [Self];

    /// The value's place in [`Code::ALL`].
    fn code(self) -> u64;

    /// The value at place `code`.
    fn of_code(code: u64) -> Self {
        Self::ALL[code as usize]
    }
}

macro_rules! code {
    ($($ty:ident = $all:expr;)*) => {$(
        impl Code for $ty {
            const ALL: &'static [Self] = &$all;

            fn code(self) -> u64 {
                self as u64
            }
        }
    )*};
}

code! {
    DropReason = DropReason::ALL;
    DispatchOutcome = [
        DispatchOutcome::Matched,
        DispatchOutcome::Consumed,
        DispatchOutcome::Error,
        DispatchOutcome::NoMatch,
        DispatchOutcome::Bypass,
    ];
    SpanOrigin = [
        SpanOrigin::Ingress,
        SpanOrigin::Remote,
        SpanOrigin::Neighbor,
        SpanOrigin::Deliver,
    ];
    BreakerState = [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen];
}

/// An unsigned number field of an event, narrowed back from the `u64`
/// it was stored as.
trait Word {
    fn of_word(word: u64) -> Self;
}

macro_rules! word {
    ($($ty:ty),*) => {$(
        impl Word for $ty {
            fn of_word(word: u64) -> Self {
                word as $ty
            }
        }
    )*};
}

word!(u8, u32, u64);

/// `d` with its sign in the low bit: small either way round.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The strings of a ring's events, one entry per distinct text.
#[derive(Default)]
struct Names {
    /// By id.
    all: Vec<Rc<str>>,
    /// Id by text; looked up only.
    ids: BTreeMap<Rc<str>, u32>,
    /// The string seen last and its id: the emission sites hand over
    /// clones of one `Rc` per channel or rule, so a pointer compare
    /// finds most names.
    last: Option<(Rc<str>, u32)>,
}

impl Names {
    /// The id of `s`'s text, entered if new.
    #[inline]
    fn id(&mut self, s: Rc<str>) -> u32 {
        match &self.last {
            Some((last, id)) if Rc::ptr_eq(last, &s) => *id,
            _ => self.look_up(s),
        }
    }

    #[inline(never)]
    fn look_up(&mut self, s: Rc<str>) -> u32 {
        let id = match self.ids.get(&s) {
            Some(&id) => id,
            None => {
                let id = self.all.len() as u32;
                self.all.push(s.clone());
                self.ids.insert(s.clone(), id);
                id
            }
        };
        self.last = Some((s, id));
        id
    }
}

/// A block of encoded events.
#[derive(Default)]
struct Block {
    /// [`BLOCK`] bytes (none before the ring's first event).
    bytes: Box<[u8]>,
    /// Bytes written.
    len: u32,
    /// Events written.
    events: u32,
}

/// Writes one event into the tail block.
struct Writer<'a> {
    out: &'a mut [u8],
    n: usize,
    t_ns: u64,
    pkt: u64,
    names: &'a mut Names,
}

impl Writer<'_> {
    #[inline(always)]
    fn put(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out[self.n] = v as u8 | 0x80;
            self.n += 1;
            v >>= 7;
        }
        self.out[self.n] = v as u8;
        self.n += 1;
    }

    #[inline(always)]
    fn time(&mut self, t_ns: u64) {
        self.put(zigzag(t_ns.wrapping_sub(self.t_ns)));
        self.t_ns = t_ns;
    }

    #[inline(always)]
    fn pkt(&mut self, pkt: u64) {
        self.put(zigzag(pkt.wrapping_sub(self.pkt)));
        self.pkt = pkt;
    }

    /// Writes `s`'s id; returns its length, its part of `est_bytes`.
    #[inline(always)]
    fn text(&mut self, s: Rc<str>) -> u64 {
        let len = s.len() as u64;
        let id = self.names.id(s);
        self.put(u64::from(id));
        len
    }

    /// As [`Writer::text`], with `None` counted as its `null`.
    #[inline(always)]
    fn opt_text(&mut self, s: Option<Rc<str>>) -> u64 {
        match s {
            Some(s) => {
                let len = s.len() as u64;
                let id = self.names.id(s);
                self.put(u64::from(id) + 1);
                len
            }
            None => {
                self.put(0);
                4
            }
        }
    }
}

/// The body of [`encode`]: one arm per row of the event table, each
/// writing the tag and then the fields in order, and summing the row's
/// `est_bytes` as it goes.
macro_rules! encode {
    (@put time $w:ident $f:ident) => {{ $w.time($f); 0 }};
    (@put pkt $w:ident $f:ident) => {{ $w.pkt($f); 0 }};
    (@put pkt_or_none $w:ident $f:ident) => {{ $w.pkt($f); 0 }};
    (@put num $w:ident $f:ident) => {{ $w.put(u64::from($f)); 0 }};
    (@put opt_num $w:ident $f:ident) => {{ $w.put($f.map_or(0, |n| u64::from(n) + 1)); 0 }};
    (@put flag $w:ident $f:ident) => {{ $w.put(u64::from($f)); 0 }};
    (@put name $w:ident $f:ident) => {{ $w.put(Code::code($f)); 0 }};
    (@put text $w:ident $f:ident) => { $w.text($f) };
    (@put opt_text $w:ident $f:ident) => { $w.opt_text($f) };
    ($ev:expr, $w:ident;
     $($variant:ident $tag:literal $base:literal { $($field:ident: $kind:ident),* })*) => {
        match $ev {
            $(TraceEvent::$variant { $($field),* } => {
                $w.put(Tag::$variant as u64);
                $base $(+ encode!(@put $kind $w $field))*
            })*
        }
    };
}

/// Writes `ev`; returns its `est_bytes`.
#[inline(always)]
fn encode(ev: TraceEvent, w: &mut Writer<'_>) -> u64 {
    event_table!(encode!(ev, w))
}

/// Reads events out of one block.
#[derive(Clone, Copy)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    t_ns: u64,
    pkt: u64,
    names: &'a [Rc<str>],
}

impl Reader<'_> {
    #[inline(always)]
    fn get(&mut self) -> u64 {
        let mut b = self.bytes[self.pos];
        self.pos += 1;
        let mut v = u64::from(b & 0x7f);
        let mut shift = 0;
        while b >= 0x80 {
            b = self.bytes[self.pos];
            self.pos += 1;
            shift += 7;
            v |= u64::from(b & 0x7f) << shift;
        }
        v
    }

    #[inline(always)]
    fn time(&mut self) -> u64 {
        self.t_ns = self.t_ns.wrapping_add(unzigzag(self.get()));
        self.t_ns
    }

    #[inline(always)]
    fn pkt(&mut self) -> u64 {
        self.pkt = self.pkt.wrapping_add(unzigzag(self.get()));
        self.pkt
    }

    #[inline(always)]
    fn text(&mut self) -> Rc<str> {
        let id = self.get();
        self.names[id as usize].clone()
    }

    #[inline(always)]
    fn opt_text(&mut self) -> Option<Rc<str>> {
        let id = self.get();
        (id != 0).then(|| self.names[id as usize - 1].clone())
    }
}

/// The body of [`decode`]: the tag picks the row, and each field is
/// read in the row's order (a struct expression evaluates its fields in
/// the order they are written).
macro_rules! decode {
    (@get time $r:ident) => { $r.time() };
    (@get pkt $r:ident) => { $r.pkt() };
    (@get pkt_or_none $r:ident) => { $r.pkt() };
    (@get num $r:ident) => { Word::of_word($r.get()) };
    (@get opt_num $r:ident) => { $r.get().checked_sub(1).map(Word::of_word) };
    (@get flag $r:ident) => { $r.get() != 0 };
    (@get name $r:ident) => { Code::of_code($r.get()) };
    (@get text $r:ident) => { $r.text() };
    (@get opt_text $r:ident) => { $r.opt_text() };
    ($r:ident;
     $($variant:ident $tag:literal $base:literal { $($field:ident: $kind:ident),* })*) => {
        match TAGS[$r.get() as usize] {
            $(Tag::$variant => TraceEvent::$variant {
                $($field: decode!(@get $kind $r)),*
            },)*
        }
    };
}

/// Reads the next event.
#[inline(always)]
fn decode(r: &mut Reader<'_>) -> TraceEvent {
    event_table!(decode!(r))
}

/// The held events of a trace log, as bytes in blocks.
#[derive(Default)]
pub(crate) struct Ring {
    /// Full blocks, oldest first.
    sealed: VecDeque<Block>,
    /// The block being written.
    tail: Block,
    /// Dropped blocks, for the tail to reuse.
    spare: Vec<Box<[u8]>>,
    /// Evicted events still at the front of the oldest block.
    skip: usize,
    /// Events in the oldest sealed block, 0 while there is none: the
    /// `skip` at which that block is dropped.
    front_events: usize,
    /// Events held.
    held: usize,
    /// The time the next event's difference is taken from.
    t_ns: u64,
    /// The packet id the next event's difference is taken from.
    pkt: u64,
    names: Names,
}

impl Ring {
    /// Appends `ev`; returns its `est_bytes`.
    #[inline(always)]
    pub(crate) fn push(&mut self, ev: TraceEvent) -> u64 {
        if self.tail.bytes.len() - (self.tail.len as usize) < MAX_EVENT {
            self.roll();
        }
        let at = self.tail.len as usize;
        let mut w = Writer {
            out: &mut self.tail.bytes[at..],
            n: 0,
            t_ns: self.t_ns,
            pkt: self.pkt,
            names: &mut self.names,
        };
        let est = encode(ev, &mut w);
        (self.t_ns, self.pkt) = (w.t_ns, w.pkt);
        self.tail.len += w.n as u32;
        self.tail.events += 1;
        self.held += 1;
        est
    }

    /// Seals the tail and starts a new one.
    #[cold]
    #[inline(never)]
    fn roll(&mut self) {
        let bytes = self
            .spare
            .pop()
            .unwrap_or_else(|| vec![0; BLOCK].into_boxed_slice());
        let full = std::mem::replace(
            &mut self.tail,
            Block {
                bytes,
                len: 0,
                events: 0,
            },
        );
        // The ring's first tail has no bytes and no events.
        if full.events > 0 {
            if self.sealed.is_empty() {
                self.front_events = full.events as usize;
            }
            self.sealed.push_back(full);
        }
        (self.t_ns, self.pkt) = (0, 0);
    }

    /// Evicts the oldest held event, and drops the oldest block once it
    /// holds none.
    #[inline]
    pub(crate) fn pop_front(&mut self) {
        self.held -= 1;
        self.skip += 1;
        if self.skip == self.front_events {
            self.drop_front();
        }
    }

    /// Drops the oldest block, all of whose events are evicted.
    #[cold]
    #[inline(never)]
    fn drop_front(&mut self) {
        if let Some(b) = self.sealed.pop_front() {
            self.spare.push(b.bytes);
        }
        self.skip = 0;
        self.front_events = self.sealed.front().map_or(0, |b| b.events as usize);
    }

    /// Frees the spare blocks (after a capacity shrinks).
    pub(crate) fn drop_spares(&mut self) {
        self.spare = Vec::new();
    }

    /// Events held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.held
    }

    /// Bytes of the blocks in use and of the names' text.
    pub(crate) fn held_bytes(&self) -> usize {
        let blocks: usize = self.sealed.iter().map(|b| b.bytes.len()).sum();
        let names: usize = self.names.all.iter().map(|s| s.len()).sum();
        blocks + self.tail.bytes.len() + names
    }

    /// The held events, oldest first.
    pub(crate) fn events(&self) -> Events<'_> {
        let mut events = Events {
            ring: self,
            block: 0,
            left: self.block_events(0),
            reader: self.reader(0),
            remaining: self.held + self.skip,
        };
        for _ in 0..self.skip {
            events.next();
        }
        events
    }

    /// A reader at the start of block `i` (`sealed.len()` is the tail).
    fn reader(&self, i: usize) -> Reader<'_> {
        let b = self.sealed.get(i).unwrap_or(&self.tail);
        Reader {
            bytes: &b.bytes[..b.len as usize],
            pos: 0,
            t_ns: 0,
            pkt: 0,
            names: &self.names.all,
        }
    }

    fn block_events(&self, i: usize) -> usize {
        self.sealed.get(i).unwrap_or(&self.tail).events as usize
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("held", &self.held)
            .field("blocks", &(self.sealed.len() + 1))
            .field("names", &self.names.all)
            .finish_non_exhaustive()
    }
}

/// The held events of a [`Ring`], decoded one at a time.
pub(crate) struct Events<'a> {
    ring: &'a Ring,
    /// The block being read.
    block: usize,
    /// Its events not yet read.
    left: usize,
    reader: Reader<'a>,
    /// Events not yet read.
    remaining: usize,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    #[inline(always)]
    fn next(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 {
            return None;
        }
        while self.left == 0 {
            self.block += 1;
            self.reader = self.ring.reader(self.block);
            self.left = self.ring.block_events(self.block);
        }
        self.left -= 1;
        self.remaining -= 1;
        // Decoded from a copy, which stays in registers.
        let mut r = self.reader;
        let ev = decode(&mut r);
        self.reader = r;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{mix64, tests::golden, TraceConfig, TraceLog, TraceOverhead};
    use crate::export::chrome_trace;
    use crate::span::TraceForest;

    /// Streams of the model test (`--release`: ten times as many, as CI
    /// runs it).
    const STREAMS: u64 = if cfg!(debug_assertions) { 70 } else { 700 };

    /// The benchmark workload's ring.
    const BIG: usize = 1 << 18;

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let z = self.0;
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(z)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }

        fn pick<T: Copy>(&mut self, all: &[T]) -> T {
            all[self.below(all.len() as u64) as usize]
        }

        /// A number up to `max`, drawn toward the edges: 0, `max`, small.
        fn upto(&mut self, max: u64) -> u64 {
            match self.below(8) {
                0 => 0,
                1 => max,
                2..=5 => self.below(300).min(max),
                _ => self.next() & max,
            }
        }

        fn n32(&mut self) -> u32 {
            self.upto(u64::from(u32::MAX)) as u32
        }

        fn n64(&mut self) -> u64 {
            self.upto(u64::MAX)
        }
    }

    /// Names: empty, escaped, non-ASCII and long ones among them.
    fn pool() -> Vec<Rc<str>> {
        ["network", "", "net\"work\\\t\n", "ünï→✓ 名前", "recovered"]
            .into_iter()
            .map(Rc::from)
            .chain([Rc::from("x".repeat(300))])
            .collect()
    }

    /// A name of the pool: a clone of its `Rc`, or a fresh `Rc` of its text.
    fn name(rng: &mut Rng, pool: &[Rc<str>]) -> Rc<str> {
        let s = &pool[rng.below(pool.len() as u64) as usize];
        if rng.one_in(3) {
            Rc::from(&**s)
        } else {
            s.clone()
        }
    }

    fn opt_name(rng: &mut Rng, pool: &[Rc<str>]) -> Option<Rc<str>> {
        (!rng.one_in(3)).then(|| name(rng, pool))
    }

    /// Draws events of every variant and the `golden()` rows. The clock
    /// mostly moves forward and sometimes back or to an edge, and packet
    /// ids mostly step up and sometimes jump anywhere.
    struct Gen {
        rng: Rng,
        pool: Vec<Rc<str>>,
        golden: Vec<TraceEvent>,
        t_ns: u64,
        pkt: u64,
    }

    impl Gen {
        fn new(seed: u64) -> Gen {
            Gen {
                rng: Rng(seed),
                pool: pool(),
                golden: golden().into_iter().map(|row| row.0).collect(),
                t_ns: 0,
                pkt: 0,
            }
        }

        fn event(&mut self) -> TraceEvent {
            let rng = &mut self.rng;
            self.t_ns = match rng.below(12) {
                0 => self.t_ns.wrapping_sub(rng.below(10_000)),
                1 => u64::MAX,
                2 => 0,
                _ => self.t_ns.wrapping_add(rng.below(5_000)),
            };
            self.pkt = match rng.below(10) {
                0 => rng.next(),
                1 => u64::MAX,
                2 => 0,
                3 => self.pkt.wrapping_sub(rng.below(50)),
                _ => self.pkt.wrapping_add(rng.below(3)),
            };
            let (t_ns, pkt, pool) = (self.t_ns, self.pkt, &self.pool);
            match rng.below(17) {
                0 => TraceEvent::LinkEnqueue {
                    t_ns,
                    link: rng.n32(),
                    from: rng.n32(),
                    pkt,
                    bytes: rng.n32(),
                    qlen: rng.n32(),
                },
                1 => TraceEvent::LinkTx {
                    t_ns,
                    link: rng.n32(),
                    from: rng.n32(),
                    pkt,
                    bytes: rng.n32(),
                },
                2 => TraceEvent::LinkDrop {
                    t_ns,
                    link: rng.n32(),
                    from: rng.n32(),
                    pkt,
                },
                3 => TraceEvent::Forward {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    link: rng.n32(),
                    ttl: rng.next() as u8,
                },
                4 => TraceEvent::Deliver {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    app: rng.n32(),
                },
                5 => TraceEvent::NodeDrop {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    reason: rng.pick(DropReason::ALL.as_slice()),
                },
                6 => TraceEvent::Dispatch {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    chan: opt_name(rng, pool),
                    outcome: rng.pick(<DispatchOutcome as Code>::ALL),
                },
                7 => TraceEvent::Exception {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    chan: name(rng, pool),
                    exn: name(rng, pool),
                },
                8 => TraceEvent::TimerFire {
                    t_ns,
                    node: rng.n32(),
                    app: rng.n32(),
                    key: rng.n64(),
                },
                // A parent below the span's own id, so lineage never
                // loops and the forest's walks end.
                9 => TraceEvent::SpanStart {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    trace: rng.n64(),
                    parent: if pkt == 0 { 0 } else { rng.below(pkt) },
                    origin: rng.pick(<SpanOrigin as Code>::ALL),
                    chan: opt_name(rng, pool),
                },
                // Steps within a `u32`, so the forest's sums of them
                // stay in range.
                10 => TraceEvent::VmRun {
                    t_ns,
                    node: rng.n32(),
                    pkt,
                    chan: name(rng, pool),
                    steps: u64::from(rng.n32()),
                },
                11 => TraceEvent::Fault {
                    t_ns,
                    kind: name(rng, pool),
                    node: (!rng.one_in(2)).then(|| rng.n32()),
                    link: (!rng.one_in(2)).then(|| rng.n32()),
                    pkt: if rng.one_in(2) { 0 } else { pkt },
                },
                12 => TraceEvent::SampleDowngrade {
                    t_ns,
                    from_n: rng.n32(),
                    to_n: rng.n32(),
                    kept: rng.n64(),
                },
                13 => TraceEvent::Health {
                    t_ns,
                    rule: name(rng, pool),
                    ok: rng.one_in(2),
                    value: rng.n64(),
                    threshold: rng.n64(),
                },
                14 => TraceEvent::Brownout {
                    t_ns,
                    from_level: rng.n32(),
                    to_level: rng.n32(),
                    rule: name(rng, pool),
                },
                15 => TraceEvent::Breaker {
                    t_ns,
                    node: rng.n32(),
                    backend: name(rng, pool),
                    from: rng.pick(<BreakerState as Code>::ALL),
                    to: rng.pick(<BreakerState as Code>::ALL),
                },
                _ => self.golden[rng.below(self.golden.len() as u64) as usize].clone(),
            }
        }
    }

    /// The log as it was before it held bytes: the events themselves in
    /// a deque, evicted from the front.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        held: VecDeque<TraceEvent>,
        recorded: u64,
        evicted: u64,
        est_bytes: u64,
    }

    impl Model {
        fn push(&mut self, ev: TraceEvent) {
            self.est_bytes += ev.est_bytes();
            if self.held.len() == self.capacity {
                self.held.pop_front();
                self.evicted += 1;
            }
            self.held.push_back(ev);
            self.recorded += 1;
        }

        fn configure(&mut self, capacity: usize) {
            self.capacity = capacity;
            while self.held.len() > capacity {
                self.held.pop_front();
                self.evicted += 1;
            }
        }

        fn to_jsonl(&self) -> String {
            let mut out = String::new();
            for ev in &self.held {
                ev.write_json(&mut out);
                out.push('\n');
            }
            out
        }
    }

    fn config(capacity: usize) -> TraceConfig {
        TraceConfig {
            capacity,
            ..TraceConfig::all()
        }
    }

    /// Everything a reader of the log can see equals the model's.
    fn same(log: &TraceLog, model: &Model, what: &str) {
        let nodes = ["src".to_string(), "r\"1\t".to_string()];
        assert_eq!(log.len(), model.held.len(), "{what}");
        assert!(log.events().eq(model.held.iter().cloned()), "{what}");
        assert_eq!(
            (log.recorded(), log.evicted()),
            (model.recorded, model.evicted),
            "{what}"
        );
        let overhead = TraceOverhead {
            kept: model.recorded,
            evicted: model.evicted,
            est_bytes: model.est_bytes,
            sample_n: 1,
            ..TraceOverhead::default()
        };
        assert_eq!(log.overhead(), overhead, "{what}");
        assert_eq!(log.to_jsonl(), model.to_jsonl(), "{what}");
        let (ours, theirs) = (
            TraceForest::from_log(log),
            TraceForest::from_events(&model.held),
        );
        assert_eq!(ours.render(&nodes), theirs.render(&nodes), "{what}");
        assert_eq!(
            chrome_trace(&ours, &nodes),
            chrome_trace(&theirs, &nodes),
            "{what}"
        );
    }

    /// Events the first block of a ring holds, for this stream's mix.
    fn per_block(seed: u64) -> usize {
        let (mut gen, mut ring) = (Gen::new(seed), Ring::default());
        while ring.sealed.is_empty() {
            ring.push(gen.event());
        }
        ring.sealed[0].events as usize
    }

    #[test]
    fn a_log_reads_back_what_a_plain_deque_holds() {
        let mut variants = [0u32; 16];
        let mut checks = 0;
        let mut big_evicted = false;
        for seed in 0..STREAMS {
            let block = per_block(seed);
            let capacities = [1, 2, 3, block - 1, block, block + 1, BIG];
            let mut gen = Gen::new(seed);
            let mut capacity = capacities[seed as usize % capacities.len()];
            // The first stream that starts at the benchmark's capacity
            // turns its ring over.
            let big = capacity == BIG && !big_evicted;
            let length = if big { BIG + 3 * block } else { 4 * block };
            let (mut log, mut model) = (TraceLog::new(config(capacity)), Model::default());
            model.configure(capacity);
            for i in 0..length {
                let ev = gen.event();
                variants[Tag::of(&ev) as usize] += 1;
                model.push(ev.clone());
                log.push(ev);
                // Shrink or grow the ring mid-stream now and then.
                if gen.rng.one_in(if big { 100_000 } else { 500 }) {
                    capacity = gen.rng.pick(&capacities[..6]);
                    log.configure(config(capacity));
                    model.configure(capacity);
                    same(
                        &log,
                        &model,
                        &format!("seed {seed} event {i}: to {capacity}"),
                    );
                    checks += 1;
                } else if !big && gen.rng.one_in(200) {
                    same(&log, &model, &format!("seed {seed} event {i}"));
                    checks += 1;
                }
            }
            same(&log, &model, &format!("seed {seed} end"));
            big_evicted |= big && log.evicted() > 0;
        }
        assert!(big_evicted, "no stream turned a full-size ring over");
        assert!(variants.iter().all(|&n| n > 100), "{variants:?}");
        assert!(checks > STREAMS, "{checks} checks");
    }

    impl Tag {
        /// The tag `ev` is written with.
        fn of(ev: &TraceEvent) -> Tag {
            let mut ring = Ring::default();
            ring.push(ev.clone());
            TAGS[usize::from(ring.tail.bytes[0])]
        }
    }

    #[test]
    fn every_enum_is_stored_as_its_place_in_all() {
        fn check<T: Code + PartialEq + fmt::Debug>() {
            for (i, v) in T::ALL.iter().enumerate() {
                assert_eq!(v.code(), i as u64, "{v:?}");
                assert_eq!(T::of_code(i as u64), *v);
            }
        }
        check::<DropReason>();
        check::<DispatchOutcome>();
        check::<SpanOrigin>();
        check::<BreakerState>();
    }
}
