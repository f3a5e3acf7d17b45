//! Synthetic web trace: the stand-in for the paper's replay of 80 000
//! accesses to the IRISA web server.
//!
//! Document popularity follows a Zipf distribution and document sizes a
//! log-normal — the standard empirical shape of 1990s web traffic — so
//! the trace defeats caching the same way a real trace does while
//! remaining seeded and reproducible.

use netsim::digest::Fnv;
use netsim::rng::SplitMix64;
use std::cell::Cell;
use std::hash::Hash;
use std::rc::Rc;

/// The shared trace: per-document sizes and the request sequence.
///
/// Request `i` of a pass is the `i`-th draw after the size draws, so a
/// request is drawn when the replay reaches it: a run pays for the
/// requests it replays, and every pass restarts from the generator
/// state the sizes left.
#[derive(Debug)]
pub struct Trace {
    sizes: Vec<usize>,
    /// Zipf CDF over documents (rank = index).
    cdf: Vec<f64>,
    /// Requests in one pass.
    n_requests: usize,
    /// The generator state request 0 is drawn from.
    start: SplitMix64,
    /// The generator state the next request is drawn from.
    rng: Cell<SplitMix64>,
    cursor: Cell<usize>,
}

/// Parameters for trace generation.
///
/// A trace has at least one document and one request: `generate` reads
/// an `n_docs` or `n_requests` of 0 as 1.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Number of distinct documents (at least 1).
    pub n_docs: usize,
    /// Number of requests in one replay pass (at least 1; the paper
    /// replays 80 000).
    pub n_requests: usize,
    /// Median document size in bytes (log-normal location).
    pub median_size: f64,
    /// Log-normal shape (sigma).
    pub sigma: f64,
    /// Zipf skew.
    pub zipf_s: f64,
    /// Maximum document size (cap).
    pub max_size: usize,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            n_docs: 2000,
            n_requests: 80_000,
            median_size: 1000.0,
            sigma: 0.9,
            zipf_s: 0.8,
            max_size: 64 * 1024,
        }
    }
}

impl Trace {
    /// Feeds what a replay has drawn so far: the generator state and
    /// the position in the pass (the sizes and the CDF are fixed).
    pub(crate) fn digest(&self, h: &mut Fnv) {
        (self.rng.get(), self.cursor.get()).hash(h);
    }

    /// Generates a trace from `spec` with the given seed.
    pub fn generate(spec: &TraceSpec, seed: u64) -> Rc<Trace> {
        let n_docs = spec.n_docs.max(1);
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        // Log-normal sizes via Box–Muller.
        let mut sizes = Vec::with_capacity(n_docs);
        for _ in 0..n_docs {
            let u1 = rng.next_f64().max(1e-12);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let size = (spec.median_size * (spec.sigma * z).exp()) as usize;
            sizes.push(size.clamp(128, spec.max_size));
        }
        // Zipf CDF over documents (rank = index).
        let weights: Vec<f64> = (1..=n_docs)
            .map(|r| 1.0 / (r as f64).powf(spec.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n_docs);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        Rc::new(Trace {
            sizes,
            cdf,
            n_requests: spec.n_requests.max(1),
            start: rng,
            rng: Cell::new(rng),
            cursor: Cell::new(0),
        })
    }

    /// Size of document `id` (bytes).
    pub fn doc_size(&self, id: u32) -> usize {
        self.sizes.get(id as usize).copied().unwrap_or(1024)
    }

    /// The next request in the shared replay (wraps around).
    pub fn next_request(&self) -> u32 {
        let mut rng = self.rng.get();
        let u = rng.next_f64();
        let next = self.cursor.get() + 1;
        if next == self.n_requests {
            self.cursor.set(0);
            self.rng.set(self.start);
        } else {
            self.cursor.set(next);
            self.rng.set(rng);
        }
        let idx = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.sizes.len() - 1);
        idx as u32
    }

    /// Number of distinct documents.
    pub fn n_docs(&self) -> usize {
        self.sizes.len()
    }

    /// Number of requests in one replay pass.
    pub fn len(&self) -> usize {
        self.n_requests
    }

    /// True if a pass has no requests (never: a pass has at least one).
    pub fn is_empty(&self) -> bool {
        self.n_requests == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::digest::Fnv;
    use std::hash::Hasher;

    /// One replay pass of `t`, from a fresh cursor.
    fn pass(t: &Trace) -> Vec<u32> {
        (0..t.len()).map(|_| t.next_request()).collect()
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = Fnv::default();
        for w in words {
            h.write(&w.to_le_bytes());
        }
        h.finish()
    }

    /// Digests of every document size and of `len() + 3` requests
    /// (which crosses the wrap).
    fn digests(spec: &TraceSpec, seed: u64) -> (u64, u64) {
        let t = Trace::generate(spec, seed);
        let sizes = fnv1a((0..t.n_docs() as u32).map(|id| t.doc_size(id) as u64));
        let requests = fnv1a((0..t.len() + 3).map(|_| u64::from(t.next_request())));
        (sizes, requests)
    }

    #[test]
    fn sequences_hold_the_digests_of_commit_2bb10f4() {
        let spec = TraceSpec::default();
        let three = TraceSpec {
            n_requests: 3,
            ..spec
        };
        let got = [
            digests(&spec, 1),
            digests(&spec, 7),
            digests(&spec, 11),
            digests(&spec, 42),
            digests(&three, 1),
        ];
        let want = [
            (3_359_403_233_503_758_131, 9_308_531_272_458_698_067),
            (8_517_866_126_148_333_480, 10_421_424_921_458_245_043),
            (16_318_563_319_206_062_523, 209_477_015_666_350_842),
            (13_135_703_431_130_096_370, 9_290_733_493_308_948_819),
            (3_359_403_233_503_758_131, 3_084_698_263_521_277_637),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn deterministic_and_sized() {
        let spec = TraceSpec::default();
        let a = Trace::generate(&spec, 42);
        let b = Trace::generate(&spec, 42);
        assert_eq!(a.len(), 80_000);
        assert_eq!(a.n_docs(), 2000);
        assert_eq!(pass(&a), pass(&b));
        for id in 0..a.n_docs() as u32 {
            assert_eq!(a.doc_size(id), b.doc_size(id));
        }
    }

    #[test]
    fn sizes_bounded_and_plausible() {
        let spec = TraceSpec::default();
        let t = Trace::generate(&spec, 1);
        for id in 0..t.n_docs() as u32 {
            let s = t.doc_size(id);
            assert!((128..=spec.max_size).contains(&s));
        }
        // Mean transferred size per request, weighted by how often each
        // document is requested.
        let total: u64 = pass(&t).iter().map(|&r| t.doc_size(r) as u64).sum();
        let mean = total as f64 / t.len() as f64;
        assert!(
            (1000.0..6000.0).contains(&mean),
            "mean transfer {mean} outside the calibrated band"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let t = Trace::generate(&TraceSpec::default(), 7);
        let requests = pass(&t);
        // Rank-0 document should be requested far more often than a
        // mid-rank one.
        let count = |id: u32| requests.iter().filter(|&&r| r == id).count();
        assert!(count(0) > 10 * count(1000).max(1));
    }

    #[test]
    fn a_zero_spec_is_one_document_and_one_request() {
        let spec = TraceSpec {
            n_docs: 0,
            n_requests: 0,
            ..TraceSpec::default()
        };
        let t = Trace::generate(&spec, 5);
        assert_eq!((t.n_docs(), t.len()), (1, 1));
        for _ in 0..3 {
            assert_eq!(t.next_request(), 0, "the one document");
        }
        assert!((128..=spec.max_size).contains(&t.doc_size(0)));
    }

    #[test]
    fn cursor_wraps() {
        let spec = TraceSpec {
            n_requests: 3,
            ..TraceSpec::default()
        };
        let t = Trace::generate(&spec, 1);
        let seq: Vec<u32> = (0..7).map(|_| t.next_request()).collect();
        assert_eq!(seq[0], seq[3]);
        assert_eq!(seq[1], seq[4]);
    }
}
