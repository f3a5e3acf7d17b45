//! Named counters and histograms with deterministic export.
//!
//! The registry replaces ad-hoc counter structs: every layer records
//! into the same namespace (`node.<name>.<what>`,
//! `node.<name>.chan.<channel>.<what>`, `link<i>.<what>`), and a
//! [`MetricsSnapshot`] serializes the whole thing as byte-stable JSON or
//! a human table. Every export walks names in name order, so its bytes
//! do not depend on insertion order. A counter is one slot of one
//! vector whether it is bumped by name ([`MetricsRegistry::add`]) or
//! through a handle resolved once ([`MetricsRegistry::add_id`]).

use crate::json::{push_key, push_str, push_u64, Seq};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// A power-of-two-bucket histogram over `u64` samples.
///
/// Bucket `0` holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. 64 buckets cover the full `u64` range, so
/// `observe` never saturates or allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        match v {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_top(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The window between `earlier` (a previous cumulative snapshot of
    /// the same series) and `self`: bucket counts, count, and sum
    /// subtract. The windowed extrema are unrecoverable from cumulative
    /// state, so `min`/`max` are re-derived from the surviving buckets'
    /// bounds (clamped to the cumulative `max`) — exactly what the
    /// windowed quantiles need.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut w = Histogram::new();
        w.count = self.count.saturating_sub(earlier.count);
        if w.count == 0 {
            return w;
        }
        w.sum = self.sum.saturating_sub(earlier.sum);
        for (i, (b, e)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            w.buckets[i] = b.saturating_sub(*e);
            if w.buckets[i] > 0 {
                // Lower bound of bucket i: 0 for bucket 0, else 2^(i-1).
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                w.min = w.min.min(lo);
                w.max = w.max.max(Histogram::bucket_top(i).min(self.max));
            }
        }
        w
    }

    /// The approximate value at quantile `q` in `[0, 100]`: the upper
    /// bound of the bucket containing the q-th percentile sample,
    /// clamped to `[min, max]`. Deterministic, integer-only.
    ///
    /// Edge behaviour (normative): an **empty** histogram returns `0`
    /// for every `q`; `q = 0` returns the observed minimum; values of
    /// `q` above 100 are clamped to 100 (the observed maximum).
    pub fn percentile(&self, q: u64) -> u64 {
        self.percentile_permille(q.saturating_mul(10))
    }

    /// Like [`Histogram::percentile`] but in per-mille (`q_pm` in
    /// `[0, 1000]`), so tail quantiles such as p99.9 (`q_pm = 999`) are
    /// expressible. Same edge behaviour: empty → 0, `0` → min, values
    /// above 1000 clamp to 1000.
    pub fn percentile_permille(&self, q_pm: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q_pm == 0 {
            return self.min;
        }
        let q_pm = q_pm.min(1000);
        // Rank of the target sample, 1-based: ceil(count * q / 1000),
        // at least 1.
        let rank = ((self.count.saturating_mul(q_pm)).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_top(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// A frozen summary for export.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
            p999: self.percentile_permille(999),
        }
    }
}

/// The exported view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Approximate 99.9th percentile.
    pub p999: u64,
}

impl HistogramSummary {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
            self.count, self.sum, self.min, self.max, self.p50, self.p90, self.p99, self.p999
        );
    }
}

/// A pre-registered counter handle: the name → slot resolution happens
/// once at registration, so hot-path increments are a bounds-checked
/// array add with **no per-event string lookup**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Where a counter's name ends in the name arena, the name's hash, and
/// whether an export shows the counter at zero.
#[derive(Debug, Clone, Copy)]
struct Slot {
    end: u32,
    hash: u32,
    /// Set by [`MetricsRegistry::add`]: a counter somebody wrote by name
    /// is exported even at 0, a slot that was only registered is not.
    shown: bool,
}

/// The names of a registry's counters, one per slot.
#[derive(Debug, Default)]
struct Names {
    /// Every name, one after the other, in slot order.
    text: String,
    /// One per slot, in slot order.
    slots: Vec<Slot>,
    /// Open addressing over `slots`: a bucket holds a slot's index + 1,
    /// or 0 when empty; a power of two long, at most half full. Looked
    /// up, never iterated: name order comes from a sort.
    index: Vec<u32>,
    /// The slots the last export showed, in name order. An exported
    /// counter stays exported (values only grow), so while as many are
    /// exported as this holds, these are they.
    exported: RefCell<Vec<u32>>,
}

impl Names {
    fn name(&self, at: u32) -> &str {
        let at = at as usize;
        let start = at.checked_sub(1).map_or(0, |i| self.slots[i].end as usize);
        &self.text[start..self.slots[at].end as usize]
    }

    /// The slot named `name`, whose hash is `hash`.
    fn find(&self, name: &str, hash: u32) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let mut b = hash as usize & mask;
        loop {
            let at = self.index[b].checked_sub(1)?;
            if self.slots[at as usize].hash == hash && self.name(at) == name {
                return Some(at);
            }
            b = (b + 1) & mask;
        }
    }

    /// Appends a slot named `name`; returns its index.
    fn push(&mut self, name: &str, hash: u32, shown: bool) -> u32 {
        let at = self.slots.len() as u32;
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("metric names fit in 4 GiB");
        self.slots.push(Slot { end, hash, shown });
        if self.slots.len() * 2 > self.index.len() {
            let len = (self.slots.len() * 2).next_power_of_two().max(16);
            self.index = vec![0; len];
            (0..=at).for_each(|at| self.place(at));
        } else {
            self.place(at);
        }
        at
    }

    /// Enters slot `at` in the index, at the first empty bucket from
    /// the one its hash picks.
    fn place(&mut self, at: u32) {
        let mask = self.index.len() - 1;
        let mut b = self.slots[at as usize].hash as usize & mask;
        while self.index[b] != 0 {
            b = (b + 1) & mask;
        }
        self.index[b] = at + 1;
    }

    /// `slots` in name order. Each is sorted by its name's first 16
    /// bytes read as one number (zero past the end), which orders two
    /// names the way their bytes do wherever it tells them apart, and
    /// by the whole names only where it does not.
    fn sorted(&self, slots: impl Iterator<Item = u32>) -> Vec<u32> {
        let head = |at: u32| {
            let name = self.name(at).as_bytes();
            let mut head = [0; 16];
            let n = name.len().min(16);
            head[..n].copy_from_slice(&name[..n]);
            u128::from_be_bytes(head)
        };
        let mut keyed: Vec<(u128, u32)> = slots.map(|at| (head(at), at)).collect();
        keyed.sort_unstable_by(|a, b| {
            (a.0.cmp(&b.0)).then_with(|| self.name(a.1).cmp(self.name(b.1)))
        });
        keyed.into_iter().map(|(_, at)| at).collect()
    }
}

/// The index's hash of a name: eight bytes at a time through rustc's
/// `FxHasher` step, then folded and multiplied once more so that every
/// byte reaches the low bits a bucket is chosen by.
fn hash(name: &str) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0u64;
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// Named counters and histograms.
///
/// Every counter is one slot of one value vector. Registering a name
/// appends it to one arena and enters its slot in a hashed index;
/// `add`/`inc` look the name up on every call, `register_counter` does
/// it once and `add_id` goes straight to the slot. Both ways write the
/// same slot. An export sorts the names of the counters it shows once
/// and keeps that order until another counter shows; the digest sorts
/// every name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    values: Vec<u64>,
    /// Cold: read at registration and export, never per packet.
    names: Box<Names>,
    histograms: BTreeMap<String, Histogram>,
}

// `values` is on the packet path and the registry sits inside
// `Telemetry`: a registry of 80 bytes read `relay_grid` 1–6% slower
// than one of 72.
const _: () = assert!(std::mem::size_of::<MetricsRegistry>() <= 72);

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The slot named `name`, registered at 0 if new; `show` marks it
    /// as exported even at 0.
    fn resolve(&mut self, name: &str, show: bool) -> CounterId {
        let hash = hash(name);
        if let Some(at) = self.names.find(name, hash) {
            self.names.slots[at as usize].shown |= show;
            return CounterId(at);
        }
        self.values.push(0);
        CounterId(self.names.push(name, hash, show))
    }

    /// Resolves `name` to a stable integer handle, registering it at 0
    /// on first use. Call once at install time; increment through the
    /// handle on the hot path.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        self.resolve(name, false)
    }

    /// Adds `n` to a pre-registered counter (saturating).
    #[inline]
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        let v = &mut self.values[id.0 as usize];
        *v = v.saturating_add(n);
    }

    /// Increments a pre-registered counter by one.
    #[inline]
    pub fn inc_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Adds `n` to the named counter (creating it at 0), saturating.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.resolve(name, true);
        self.add_id(id, n);
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        (self.names.find(name, hash(name))).map_or(0, |at| self.get_id(CounterId(at)))
    }

    /// Current value of a pre-registered counter.
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Records a histogram sample under `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::new();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Every counter an export shows, in name order: each one written
    /// by name, and each registered one that was bumped. A slot that
    /// was only registered is left out, so unexercised registrations
    /// don't widen the export.
    pub fn counters(&self) -> Vec<(&str, u64)> {
        let names = &*self.names;
        let exports = |at: usize| names.slots[at].shown || self.values[at] > 0;
        let mut exported = names.exported.borrow_mut();
        if (0..self.values.len()).filter(|&at| exports(at)).count() != exported.len() {
            let slots = 0..self.values.len() as u32;
            *exported = names.sorted(slots.filter(|&at| exports(at as usize)));
        }
        let value = |at: u32| (names.name(at), self.values[at as usize]);
        exported.iter().map(|&at| value(at)).collect()
    }

    /// Every histogram, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(name, h)| (name.as_str(), h))
    }

    /// Feeds every counter (name, value, whether an export shows it at
    /// zero) and every histogram into `h`, each in name order: the
    /// registry's part of a simulation's state digest.
    pub fn digest(&self, h: &mut impl Hasher) {
        for at in self.names.sorted(0..self.values.len() as u32) {
            let shown = self.names.slots[at as usize].shown;
            (self.names.name(at), self.values[at as usize], shown).hash(h);
        }
        self.histograms.hash(h);
    }

    /// Freezes the registry contents into a snapshot of what
    /// [`MetricsRegistry::counters`] and
    /// [`MetricsRegistry::histograms`] yield.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: (self.counters().into_iter())
                .map(|(name, v)| (name.to_owned(), v))
                .collect(),
            histograms: (self.histograms())
                .map(|(name, h)| (name.to_owned(), h.summary()))
                .collect(),
        }
    }
}

/// A frozen, export-ready view of every counter and histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Sets (or overwrites) a counter — used by layers that keep their
    /// own native counters and fold them in at snapshot time.
    pub fn set_counter(&mut self, name: impl Into<String>, v: u64) {
        self.counters.insert(name.into(), v);
    }

    /// Inserts a histogram summary.
    pub fn set_histogram(&mut self, name: impl Into<String>, h: &Histogram) {
        self.histograms.insert(name.into(), h.summary());
    }

    /// Byte-stable JSON export:
    /// `{"counters":{...},"histograms":{...}}` with keys in name order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut seq = Seq::new();
        for (k, v) in &self.counters {
            seq.sep(&mut out);
            push_key(&mut out, k);
            push_u64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        let mut seq = Seq::new();
        for (k, h) in &self.histograms {
            seq.sep(&mut out);
            push_key(&mut out, k);
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// The human `--report` table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let w = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<w$}  {v}");
            }
        }
        if !self.histograms.is_empty() {
            let w = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str("histograms\n");
            let _ = writeln!(
                out,
                "  {:<w$}  {:>10} {:>12} {:>8} {:>8} {:>8} {:>8}",
                "name", "count", "sum", "min", "p50", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<w$}  {:>10} {:>12} {:>8} {:>8} {:>8} {:>8}",
                    h.count, h.sum, h.min, h.p50, h.p99, h.max
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Writes a JSON object that embeds scalar fields alongside a metrics
/// snapshot — the shape of every `BENCH_*.json` file:
/// `{"bench":<name>,"scalars":{...},"metrics":<snapshot>}`.
pub fn bench_json(bench: &str, scalars: &[(&str, f64)], metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    push_key(&mut out, "bench");
    push_str(&mut out, bench);
    out.push(',');
    push_key(&mut out, "scalars");
    out.push('{');
    let mut seq = Seq::new();
    let mut sorted: Vec<&(&str, f64)> = scalars.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    for (k, v) in sorted {
        seq.sep(&mut out);
        push_key(&mut out, k);
        // Fixed-precision decimal keeps the bytes stable and readable;
        // six places is plenty for kbps / req/s / ms scalars.
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(out, "{}", *v as i64);
        } else {
            let _ = write!(out, "{v:.6}");
        }
    }
    out.push_str("},");
    push_key(&mut out, "metrics");
    out.push_str(&metrics.to_json());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 136);
        let s = h.summary();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 3 && s.p50 <= 7, "p50 = {}", s.p50);
        assert_eq!(s.p99, 100);
    }

    #[test]
    fn histogram_empty_summary_is_zero() {
        let s = Histogram::new().summary();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p999), (0, 0, 0, 0, 0));
    }

    #[test]
    fn percentile_edge_behaviour_is_normalized() {
        // Empty: every quantile is 0, including q=0 and out-of-range q.
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0), 0);
        assert_eq!(empty.percentile(50), 0);
        assert_eq!(empty.percentile(1000), 0);

        let mut h = Histogram::new();
        for v in [5u64, 10, 2000] {
            h.observe(v);
        }
        // q=0 is the observed minimum, not bucket 0.
        assert_eq!(h.percentile(0), 5);
        assert_eq!(h.percentile_permille(0), 5);
        // q above the top clamps to the maximum.
        assert_eq!(h.percentile(100), 2000);
        assert_eq!(h.percentile(250), 2000);
        assert_eq!(h.percentile_permille(5000), 2000);
    }

    #[test]
    fn p999_tracks_the_tail() {
        let mut h = Histogram::new();
        for _ in 0..998 {
            h.observe(10);
        }
        h.observe(100_000);
        h.observe(100_000);
        let s = h.summary();
        // 2 outliers in 1000 samples: p99 stays in the body, p999 must
        // land in the outlier's bucket (clamped to max).
        assert!(s.p99 < 100, "p99 = {}", s.p99);
        assert_eq!(s.p999, 100_000);
    }

    #[test]
    fn registry_counts_and_snapshots_deterministically() {
        let mut r = MetricsRegistry::new();
        r.inc("z.second");
        r.add("a.first", 41);
        r.inc("a.first");
        r.observe("lat", 10);
        r.observe("lat", 20);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a.first"], 42);
        assert_eq!(snap.counters["z.second"], 1);
        let json = snap.to_json();
        // Name-ordered keys, independent of insertion order.
        assert!(json.starts_with("{\"counters\":{\"a.first\":42,\"z.second\":1}"));
        assert_eq!(json, r.snapshot().to_json());
    }

    #[test]
    fn counter_ids_resolve_once_and_fold_into_snapshots() {
        let mut r = MetricsRegistry::new();
        let a = r.register_counter("node.a.delivered");
        let a2 = r.register_counter("node.a.delivered");
        assert_eq!(a, a2, "same name resolves to the same handle");
        let b = r.register_counter("node.b.delivered");
        r.inc_id(a);
        r.add_id(a, 4);
        r.inc_id(b);
        assert_eq!(r.counter("node.a.delivered"), 5);
        assert_eq!((r.get_id(a), r.get_id(b)), (5, 1));
        let snap = r.snapshot();
        assert_eq!(snap.counters["node.a.delivered"], 5);
        assert_eq!(snap.counters["node.b.delivered"], 1);
        // A write by name lands in the same slot.
        r.add("node.a.delivered", 2);
        assert_eq!(r.counter("node.a.delivered"), 7);
        assert_eq!(r.snapshot().counters["node.a.delivered"], 7);
        // Registered-but-untouched slots don't widen the export; a
        // counter written by name shows even at zero, also when the
        // write came after the registration.
        let c = r.register_counter("node.c.delivered");
        r.add("node.d.bound", 0);
        let snap = r.snapshot();
        assert!(!snap.counters.contains_key("node.c.delivered"));
        assert_eq!(snap.counters["node.d.bound"], 0);
        r.add("node.c.delivered", 0);
        assert_eq!(r.register_counter("node.c.delivered"), c);
        assert_eq!(r.snapshot().counters["node.c.delivered"], 0);
        // Saturation at the slot level.
        r.add_id(a, u64::MAX);
        assert_eq!(r.counter("node.a.delivered"), u64::MAX);
    }

    #[test]
    fn the_index_finds_every_name_across_its_growth() {
        let mut r = MetricsRegistry::new();
        let name = |i: u64| format!("node.n{i}.chan.network.dispatch");
        let ids: Vec<_> = (0..5_000).map(|i| r.register_counter(&name(i))).collect();
        for (i, &id) in (0..).zip(&ids) {
            r.add_id(id, i);
        }
        for (i, &id) in (0..).zip(&ids) {
            assert_eq!(r.counter(&name(i)), i);
            assert_eq!(r.register_counter(&name(i)), id);
        }
        assert_eq!(r.counter(&name(5_000)), 0);
    }

    #[test]
    fn exports_are_in_byte_order_and_take_in_newly_bumped_counters() {
        let mut r = MetricsRegistry::new();
        let names = [
            "node.a.b",
            "node.a",
            "node.a-b",
            "node.a\0",
            "node.a\0\0",
            "node.a.b.chan.network.dispatch",
            "node.a.b.chan.network.dispatcher",
            "node.a.b.chan.network.d",
            "node.a.b.chan.networl",
            "node.é",
            "",
            "z",
        ];
        for name in names {
            r.inc(name);
        }
        let late = r.register_counter("node.a.late");
        let order = |r: &MetricsRegistry| -> Vec<String> {
            (r.counters().into_iter())
                .map(|(name, _)| name.to_owned())
                .collect()
        };
        let mut want: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        want.sort();
        assert_eq!(order(&r), want);
        r.inc_id(late);
        want.push("node.a.late".into());
        want.sort();
        assert_eq!(order(&r), want);
    }

    #[test]
    fn histogram_diff_recovers_the_window() {
        let mut cum = Histogram::new();
        for v in [10u64, 20, 30] {
            cum.observe(v);
        }
        let earlier = cum.clone();
        for v in [1000u64, 2000, 4000] {
            cum.observe(v);
        }
        let w = cum.diff(&earlier);
        assert_eq!(w.count(), 3);
        assert_eq!(w.sum(), 7000);
        // Window quantiles come from the window's buckets only.
        assert!(w.percentile(99) >= 2000, "p99 = {}", w.percentile(99));
        assert!(w.percentile(0) >= 512, "min bound = {}", w.percentile(0));
        // Empty window.
        let e = cum.diff(&cum);
        assert_eq!(e.count(), 0);
        assert_eq!(e.percentile(99), 0);
    }

    #[test]
    fn table_render_mentions_every_name() {
        let mut r = MetricsRegistry::new();
        r.inc("node.a.delivered");
        r.observe("link0.queue_depth", 4);
        let t = r.snapshot().render_table();
        assert!(t.contains("node.a.delivered") && t.contains("link0.queue_depth"));
    }

    #[test]
    fn bench_json_embeds_scalars_and_metrics() {
        let mut r = MetricsRegistry::new();
        r.inc("c");
        let j = bench_json("fig6", &[("rx_kbps", 512.5), ("n", 3.0)], &r.snapshot());
        assert!(j.starts_with("{\"bench\":\"fig6\",\"scalars\":{\"n\":3,\"rx_kbps\":512.500000}"));
        assert!(j.contains("\"metrics\":{\"counters\":{\"c\":1}"));
    }
}
