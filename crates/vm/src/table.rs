//! PLAN-P's `hash_table`, the channel and protocol state both engines
//! read and write, and the digest of a value that reads one.
//!
//! A table is held in one of two layouts, picked at its first insert.
//! Where every key is a scalar or a tuple of at most two scalars (an
//! inline [`KeyShape`]) and every value a scalar ([`ScalarTy`]), an
//! entry is two key words and a value word, 24 bytes, and the shape and
//! the value type are kept once, beside the map. Any other table is a
//! map from [`Key`] to [`Value`], 72 bytes an entry. An entry that does
//! not fit the word layout moves the table to the general map, once, so
//! no program can tell which layout it has: both answer every primitive
//! alike and digest alike.

use crate::value::{Key, KeyShape, ScalarTy, Value};
use netsim::digest::Fnv;
use netsim::rng::{Seedless, SeedlessHasher};
use std::cell::RefCell;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;

/// Shared, mutable hash table used for channel and protocol state.
pub type TableRef = Rc<RefCell<TableMap>>;

/// Creates an empty state table with room for `capacity` entries, made
/// at its first insert: an empty table allocates nothing.
pub fn new_table(capacity: usize) -> TableRef {
    Rc::new(RefCell::new(TableMap(Layout::Empty { hint: capacity })))
}

/// The map behind a [`TableRef`]. The engines look it up and write it
/// but never iterate it (`<table:N entries>` is the only read of the
/// whole), so its [`Seedless`] hash cannot move an output — it makes a
/// lookup a few multiplies instead of a SipHash round. Readers of the
/// whole (the state digest, the differential tests) take
/// [`TableMap::entries`], in one order whatever the layout.
pub struct TableMap(Layout);

enum Layout {
    /// No entry yet, and nothing allocated: room for `hint` entries is
    /// made at the first insert, in the layout that entry fits.
    Empty { hint: usize },
    /// Word keys and word values, of one shape and one type.
    Words(WordMap),
    /// Any key, any value.
    General(GeneralMap),
}

// A key's hash and equality never read a table (a table is no
// equality type; a boxed key that held one would hash a constant), so
// the `RefCell` inside a `Value::Table` cannot move a key.
#[allow(clippy::disallowed_types)] // lookup-only: read whole only through `TableMap::each`, sorted by its readers
type GeneralMap = std::collections::HashMap<Key, Value, Seedless>;

#[allow(clippy::disallowed_types)] // lookup-only, as `GeneralMap`
type WordHashMap = std::collections::HashMap<WordKey, u64, Words>;

/// The words of an inline key of at most two components; the second is
/// 0 for a bare scalar or a one-tuple, as in [`Key::Inline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WordKey([u64; 2]);

// A bucket of the word layout: two key words and a value word. The
// general map's `(Key, Value)` bucket is 72 bytes.
const _: () = assert!(std::mem::size_of::<(WordKey, u64)>() <= 24);

impl Hash for WordKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // [`Words`] keeps the first `n` of these: one `write_u64` per
        // component, what `Key::Inline` of the table's shape writes.
        state.write_u64(self.0[0]);
        state.write_u64(self.0[1]);
    }
}

/// [`Seedless`], fed the first `.0` words a [`WordKey`] writes: the
/// components of the table's key shape. A word key hashes as the
/// [`Key::Inline`] it stands for.
#[derive(Debug, Clone, Copy)]
struct Words(usize);

impl BuildHasher for Words {
    type Hasher = FirstWords;

    #[inline]
    fn build_hasher(&self) -> FirstWords {
        FirstWords(Seedless.build_hasher(), self.0)
    }
}

/// The [`Hasher`] of [`Words`]: a [`SeedlessHasher`] and the number of
/// words it still takes.
struct FirstWords(SeedlessHasher, usize);

impl Hasher for FirstWords {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        if self.1 > 0 {
            self.1 -= 1;
            self.0.write_u64(word);
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The word layout: the shape of every key, the type of every value,
/// and the words.
struct WordMap {
    shape: KeyShape,
    ty: ScalarTy,
    map: WordHashMap,
}

impl WordMap {
    /// A word map for entries like `(k, v)`, with room for `hint`, if
    /// they fit one.
    fn fitting(k: &Key, v: &Value, hint: usize) -> Option<WordMap> {
        let Key::Inline(shape, _) = k else {
            return None;
        };
        let words = shape.tys().len();
        let (ty, _) = ScalarTy::word(v)?;
        (words <= 2).then(|| WordMap {
            shape: *shape,
            ty,
            map: WordHashMap::with_capacity_and_hasher(hint, Words(words)),
        })
    }

    /// The word key of `k`, if `k` has the table's shape.
    #[inline]
    fn key(&self, k: &Key) -> Option<WordKey> {
        match k {
            Key::Inline(shape, [a, b, _]) if *shape == self.shape => Some(WordKey([*a, *b])),
            _ => None,
        }
    }

    /// The word of `v`, if `v` has the table's value type.
    #[inline]
    fn word(&self, v: &Value) -> Option<u64> {
        ScalarTy::word(v).and_then(|(ty, w)| (ty == self.ty).then_some(w))
    }

    /// The key and the value an entry stands for.
    fn entry(&self, k: &WordKey, w: u64) -> (Key, Value) {
        let [a, b] = k.0;
        (Key::Inline(self.shape, [a, b, 0]), self.ty.value(w))
    }

    /// The same entries in a general map, with the same room.
    #[allow(clippy::mutable_key_type)] // see `GeneralMap`
    fn general(&self) -> GeneralMap {
        let mut map = GeneralMap::with_capacity_and_hasher(self.map.capacity(), Seedless);
        map.extend(self.map.iter().map(|(k, &w)| self.entry(k, w)));
        map
    }
}

impl TableMap {
    /// The entry under `k`.
    #[inline]
    pub fn get(&self, k: &Key) -> Option<Value> {
        match &self.0 {
            Layout::Empty { .. } => None,
            Layout::Words(m) => m.map.get(&m.key(k)?).map(|&w| m.ty.value(w)),
            Layout::General(m) => m.get(k).cloned(),
        }
    }

    /// Whether the table holds `k`.
    #[inline]
    pub fn contains_key(&self, k: &Key) -> bool {
        match &self.0 {
            Layout::Empty { .. } => false,
            Layout::Words(m) => m.key(k).is_some_and(|k| m.map.contains_key(&k)),
            Layout::General(m) => m.contains_key(k),
        }
    }

    /// Files `v` under `k`; true when `k` is new. The first insert picks
    /// the layout; an entry the word layout cannot hold moves the table
    /// to the general map.
    #[inline]
    pub fn insert(&mut self, k: Key, v: Value) -> bool {
        loop {
            let next = match &mut self.0 {
                Layout::Empty { hint } => match WordMap::fitting(&k, &v, *hint) {
                    Some(m) => Layout::Words(m),
                    None => Layout::General(GeneralMap::with_capacity_and_hasher(*hint, Seedless)),
                },
                Layout::Words(m) => match (m.key(&k), m.word(&v)) {
                    (Some(key), Some(w)) => return m.map.insert(key, w).is_none(),
                    _ => Layout::General(m.general()),
                },
                Layout::General(m) => return m.insert(k, v).is_none(),
            };
            self.0 = next;
        }
    }

    /// Takes out the entry under `k`; true when there was one.
    #[inline]
    pub fn remove(&mut self, k: &Key) -> bool {
        match &mut self.0 {
            Layout::Empty { .. } => false,
            Layout::Words(m) => m.key(k).is_some_and(|k| m.map.remove(&k).is_some()),
            Layout::General(m) => m.remove(k).is_some(),
        }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Layout::Empty { .. } => 0,
            Layout::Words(m) => m.map.len(),
            Layout::General(m) => m.len(),
        }
    }

    /// True when the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes out every entry; the layout and its room stay.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Layout::Empty { .. } => {}
            Layout::Words(m) => m.map.clear(),
            Layout::General(m) => m.clear(),
        }
    }

    /// Every entry, ordered by the `{:?}` of its key: the same order
    /// for the same entries in either layout.
    pub fn entries(&self) -> Vec<(Key, Value)> {
        let mut entries = Vec::with_capacity(self.len());
        self.each(|k, v| entries.push((k, v)));
        entries.sort_by_cached_key(|(k, _)| format!("{k:?}"));
        entries
    }

    /// Calls `f` on every entry, in the map's order: a word entry as
    /// the key and value it stands for.
    fn each(&self, mut f: impl FnMut(Key, Value)) {
        match &self.0 {
            Layout::Empty { .. } => {}
            Layout::Words(m) => m.map.iter().for_each(|(k, &w)| {
                let (k, v) = m.entry(k, w);
                f(k, v)
            }),
            Layout::General(m) => m.iter().for_each(|(k, v)| f(k.clone(), v.clone())),
        }
    }
}

impl fmt::Debug for TableMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

/// Feeds `v` by structure. A table's map is looked up and never
/// iterated by an engine, so its iteration order is the hasher's: its
/// entries are fed as `(key digest, value digest)` pairs, sorted, the
/// key's as the digest of its `{:?}` — a word entry's as of the
/// `Key::Inline` it stands for — so both layouts feed the same bytes.
pub fn digest_value(v: &Value, h: &mut Fnv) {
    let of = |feed: &dyn Fn(&mut Fnv)| {
        let mut h = Fnv::default();
        feed(&mut h);
        h.finish()
    };
    match v {
        Value::Int(n) => (0u8, n).hash(h),
        Value::Bool(b) => (1u8, b).hash(h),
        Value::Char(c) => (2u8, c).hash(h),
        Value::Unit => 3u8.hash(h),
        Value::Host(a) => (4u8, a).hash(h),
        Value::Str(s) => (5u8, &**s).hash(h),
        Value::Blob(b) => (6u8, &b[..]).hash(h),
        Value::Tuple(items) => {
            (7u8, items.len()).hash(h);
            items.iter().for_each(|item| digest_value(item, h));
        }
        Value::List(items) => {
            (8u8, items.len()).hash(h);
            items.iter().for_each(|item| digest_value(item, h));
        }
        Value::Table(t) => {
            let mut entries: Vec<(u64, u64)> = Vec::with_capacity(t.borrow().len());
            t.borrow().each(|k, v| {
                let key = of(&|h| format!("{k:?}").hash(h));
                entries.push((key, of(&|h| digest_value(&v, h))));
            });
            entries.sort_unstable();
            (9u8, entries).hash(h);
        }
        Value::Ip(hdr) => (10u8, hdr).hash(h),
        Value::Tcp(hdr) => (11u8, hdr).hash(h),
        Value::Udp(hdr) => (12u8, hdr).hash(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use crate::prims::eval;
    use crate::value::VmError;
    use bytes::Bytes;
    use netsim::rng::SplitMix64;
    use planp_lang::prims::PrimId;
    use std::collections::BTreeSet;

    /// Op sequences of the layout property test (`--release`: ten times
    /// as many, as CI runs it).
    const SEQUENCES: u64 = if cfg!(debug_assertions) { 600 } else { 6_000 };

    const TYS: [ScalarTy; 4] = [
        ScalarTy::Int,
        ScalarTy::Bool,
        ScalarTy::Char,
        ScalarTy::Host,
    ];

    /// A value of `ty` from a small pool, so that keys repeat.
    fn scalar(ty: ScalarTy, rng: &mut SplitMix64) -> Value {
        let i = rng.next_below(4) as usize;
        match ty {
            ScalarTy::Int => Value::Int([0, 80, -1, i64::MIN][i]),
            ScalarTy::Bool => Value::Bool(i % 2 == 1),
            ScalarTy::Char => Value::Char(['\0', 'P', 'é', '\u{10FFFF}'][i]),
            ScalarTy::Host => Value::Host([0, 80, 0x0A00_0001, u32::MAX][i]),
        }
    }

    /// A key of `shape`: component types, and whether it is a tuple.
    fn key(shape: &(Vec<ScalarTy>, bool), rng: &mut SplitMix64) -> Value {
        let mut items: Vec<Value> = shape.0.iter().map(|&ty| scalar(ty, rng)).collect();
        if shape.1 {
            Value::tuple(items)
        } else {
            items.swap_remove(0)
        }
    }

    /// A key shape: a bare scalar, or a tuple of one, two or three.
    fn shape(rng: &mut SplitMix64) -> (Vec<ScalarTy>, bool) {
        let arity = rng.next_below(4) as usize;
        let tys = (0..arity.max(1)).map(|_| TYS[rng.next_below(4) as usize]);
        (tys.collect(), arity > 0)
    }

    /// A key or a value the word layout of `(shape, ty)` cannot hold:
    /// another shape, a boxed key, a non-scalar or another scalar type.
    fn misfit(
        shape: &(Vec<ScalarTy>, bool),
        ty: ScalarTy,
        rng: &mut SplitMix64,
    ) -> (Option<Value>, Option<Value>) {
        match rng.next_below(4) {
            0 => {
                let other = std::iter::repeat_with(|| self::shape(rng)).find(|s| s != shape);
                (other.map(|s| key(&s, rng)), None)
            }
            1 => (
                Some(Value::str(["", "GET"][rng.next_below(2) as usize])),
                None,
            ),
            2 => {
                let v = [
                    Value::Unit,
                    Value::str("x"),
                    Value::Blob(Bytes::from_static(b"P")),
                ];
                (None, Some(v[rng.next_below(3) as usize].clone()))
            }
            _ => {
                let other = TYS.iter().copied().find(|&t| t != ty);
                (None, other.map(|t| scalar(t, rng)))
            }
        }
    }

    fn prim(name: &str) -> PrimId {
        planp_lang::prims::table()
            .lookup(name)
            .expect("a table primitive")
            .0
    }

    /// The sorted entries a reader sees, as text.
    fn shown(entries: Vec<(Key, Value)>) -> String {
        format!("{entries:?}")
    }

    fn digest(v: &Value) -> u64 {
        let mut h = Fnv::default();
        digest_value(v, &mut h);
        h.finish()
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // see `GeneralMap`
    fn both_layouts_answer_every_primitive_as_a_plain_map_does() {
        let [set, get, has, del, clear, size] = [
            "tblSet", "tblGet", "tblHas", "tblDel", "tblClear", "tblSize",
        ]
        .map(prim);
        let mut rng = SplitMix64::new(47);
        let (mut words, mut moved, mut general) = (0, 0, 0);
        let (mut key_tys, mut value_tys, mut arities) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for seq in 0..SEQUENCES {
            let (shape, ty) = (shape(&mut rng), TYS[rng.next_below(4) as usize]);
            let misfits = rng.next_below(3) == 0;
            let t = Value::Table(new_table(rng.next_below(20) as usize));
            #[allow(clippy::disallowed_types)] // the reference: looked up, read whole only sorted
            let mut want = std::collections::HashMap::<Key, Value>::new();
            let mut env = MockEnv::new(0);
            let mut first = None;
            for op in 0..rng.next_below(60) {
                let what = format!("sequence {seq}, op {op}");
                let k = key(&shape, &mut rng);
                let (k, v) = if misfits && rng.next_below(30) == 0 {
                    let (mk, mv) = misfit(&shape, ty, &mut rng);
                    (mk.unwrap_or(k), mv.unwrap_or_else(|| scalar(ty, &mut rng)))
                } else {
                    (k, scalar(ty, &mut rng))
                };
                let kk = Key::of(&k);
                let n = want.len() as u64;
                match rng.next_below(20) {
                    0..=7 => {
                        eval(set, &[t.clone(), k, v.clone()], &mut env).expect(&what);
                        let fresh = want.insert(kk, v).is_none();
                        let noted = (i64::from(fresh), want.len() as u64);
                        assert_eq!(env.table_writes.last(), Some(&noted), "{what}");
                        let Value::Table(m) = &t else { unreachable!() };
                        first.get_or_insert(matches!(m.borrow().0, Layout::Words(_)));
                    }
                    8..=10 => {
                        let got = eval(get, &[t.clone(), k], &mut env);
                        let want = want
                            .get(&kk)
                            .cloned()
                            .ok_or(VmError::Exn(crate::value::exn::NOT_FOUND));
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
                    }
                    11..=13 => {
                        let got = eval(has, &[t.clone(), k], &mut env).expect(&what);
                        assert_eq!(got, Value::Bool(want.contains_key(&kk)), "{what}");
                    }
                    14..=17 => {
                        eval(del, &[t.clone(), k], &mut env).expect(&what);
                        let gone = want.remove(&kk).is_some();
                        let noted = (-i64::from(gone), want.len() as u64);
                        assert_eq!(env.table_writes.last(), Some(&noted), "{what}");
                    }
                    18 => {
                        eval(clear, std::slice::from_ref(&t), &mut env).expect(&what);
                        want.clear();
                        assert_eq!(env.table_writes.last(), Some(&(-(n as i64), 0)), "{what}");
                    }
                    _ => {
                        let got = eval(size, std::slice::from_ref(&t), &mut env).expect(&what);
                        assert_eq!(got, Value::Int(n as i64), "{what}");
                    }
                }
            }
            // Read whole: the same entries in the same order, and the
            // digest of the general map holding them.
            let Value::Table(m) = &t else { unreachable!() };
            let mut reference: Vec<(Key, Value)> = want.into_iter().collect();
            reference.sort_by_cached_key(|(k, _)| format!("{k:?}"));
            let plain: GeneralMap = reference.iter().cloned().collect();
            let plain = Value::Table(Rc::new(RefCell::new(TableMap(Layout::General(plain)))));
            assert_eq!(
                shown(m.borrow().entries()),
                shown(reference),
                "sequence {seq}"
            );
            assert_eq!(digest(&t), digest(&plain), "sequence {seq}");
            assert_eq!(format!("{t:?}"), format!("{plain:?}"), "sequence {seq}");
            match (&m.borrow().0, first) {
                (Layout::Words(w), _) => {
                    words += 1;
                    key_tys.extend(w.shape.tys().iter().map(|t| format!("{t:?}")));
                    value_tys.insert(format!("{:?}", w.ty));
                    arities.insert((w.shape.tys().len(), w.shape.is_tuple()));
                }
                (Layout::General(_), Some(true)) => moved += 1,
                (Layout::General(_), _) => general += 1,
                (Layout::Empty { .. }, _) => {}
            };
        }
        println!("{words} word tables, {moved} moved to the general map, {general} general from the first insert");
        // Every scalar type as a key component and as a value, bare and
        // one- and two-tuple keys in words; misfits moved; three-tuples
        // and boxed keys general.
        assert_eq!((key_tys.len(), value_tys.len(), arities.len()), (4, 4, 3));
        let least = SEQUENCES / 20;
        assert!(
            words > 4 * least && moved > least && general > least,
            "{words} / {moved} / {general}"
        );
    }

    #[test]
    fn connection_keys_fill_the_control_byte() {
        // hashbrown files an entry under the hash's top 7 bits; 65 536
        // sequential `(host, port)` keys must spread over them, as a
        // boxed-free `Key` and as the word key that stands for it.
        let mut seen = [false; 128];
        for i in 0..65_536u32 {
            let key = Key::of(&Value::tuple(vec![
                Value::Host(0x0A00_0000 + (i >> 8)),
                Value::Int(i64::from(1024 + (i & 0xFF))),
            ]));
            let Key::Inline(_, [a, b, _]) = key else {
                panic!("{key:?} is inline")
            };
            let hash = Seedless.hash_one(&key);
            assert_eq!(Words(2).hash_one(WordKey([a, b])), hash, "{key:?}");
            seen[(hash >> 57) as usize] = true;
        }
        let filled = seen.iter().filter(|&&s| s).count();
        assert!(filled >= 120, "{filled} of 128 control-byte values");
        // A bare scalar's word key hashes one word, as its `Key` does.
        let key = Key::of(&Value::Host(7));
        assert_eq!(Words(1).hash_one(WordKey([7, 0])), Seedless.hash_one(&key));
    }

    #[test]
    fn an_empty_table_allocates_nothing_and_a_first_insert_picks_the_layout() {
        let layout = |k: Value, v: Value| {
            let mut m = TableMap(Layout::Empty { hint: 4 });
            m.insert(Key::of(&k), v);
            match m.0 {
                Layout::Words(w) => format!("words {}", w.map.capacity() >= 4),
                Layout::General(g) => format!("general {}", g.capacity() >= 4),
                Layout::Empty { .. } => "empty".into(),
            }
        };
        let pair = Value::tuple(vec![Value::Host(1), Value::Int(2)]);
        let triple = Value::tuple(vec![Value::Host(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(layout(pair.clone(), Value::Host(3)), "words true");
        assert_eq!(layout(Value::Char('a'), Value::Bool(true)), "words true");
        assert_eq!(layout(triple, Value::Host(3)), "general true");
        assert_eq!(layout(pair, Value::str("s")), "general true");
        assert_eq!(layout(Value::str("s"), Value::Int(1)), "general true");
        assert!(TableMap(Layout::Empty { hint: 4 }).is_empty());
        // The bucket an entry of the general map takes, for the docs.
        assert_eq!(std::mem::size_of::<(Key, Value)>(), 72);
    }
}
