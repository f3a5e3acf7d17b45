//! Synthetic web trace: the stand-in for the paper's replay of 80 000
//! accesses to the IRISA web server.
//!
//! Document popularity follows a Zipf distribution and document sizes a
//! log-normal — the standard empirical shape of 1990s web traffic — so
//! the trace defeats caching the same way a real trace does while
//! remaining seeded and reproducible.

use netsim::rng::SplitMix64;
use std::cell::Cell;
use std::rc::Rc;

/// The shared trace: per-document sizes and the request sequence.
#[derive(Debug)]
pub struct Trace {
    sizes: Vec<usize>,
    requests: Vec<u32>,
    cursor: Cell<usize>,
}

/// Parameters for trace generation.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Number of distinct documents.
    pub n_docs: usize,
    /// Number of requests (the paper replays 80 000).
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
    /// Generates a trace from `spec` with the given seed.
    pub fn generate(spec: &TraceSpec, seed: u64) -> Rc<Trace> {
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        // Log-normal sizes via Box–Muller.
        let mut sizes = Vec::with_capacity(spec.n_docs);
        for _ in 0..spec.n_docs {
            let u1 = rng.next_f64().max(1e-12);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let size = (spec.median_size * (spec.sigma * z).exp()) as usize;
            sizes.push(size.clamp(128, spec.max_size));
        }
        // Zipf CDF over documents (rank = index).
        let weights: Vec<f64> = (1..=spec.n_docs)
            .map(|r| 1.0 / (r as f64).powf(spec.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(spec.n_docs);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut requests = Vec::with_capacity(spec.n_requests);
        for _ in 0..spec.n_requests {
            let u = rng.next_f64();
            let idx = cdf.partition_point(|&c| c < u).min(spec.n_docs - 1);
            requests.push(idx as u32);
        }
        Rc::new(Trace {
            sizes,
            requests,
            cursor: Cell::new(0),
        })
    }

    /// Size of document `id` (bytes).
    pub fn doc_size(&self, id: u32) -> usize {
        self.sizes.get(id as usize).copied().unwrap_or(1024)
    }

    /// The next request in the shared replay (wraps around).
    pub fn next_request(&self) -> u32 {
        let i = self.cursor.get();
        self.cursor.set((i + 1) % self.requests.len());
        self.requests[i]
    }

    /// Number of distinct documents.
    pub fn n_docs(&self) -> usize {
        self.sizes.len()
    }

    /// Number of requests in one replay pass.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the request list is empty (never, for generated traces).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let spec = TraceSpec::default();
        let a = Trace::generate(&spec, 42);
        let b = Trace::generate(&spec, 42);
        assert_eq!(a.len(), 80_000);
        assert_eq!(a.n_docs(), 2000);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.sizes, b.sizes);
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
        let total: u64 = t.requests.iter().map(|&r| t.doc_size(r) as u64).sum();
        let mean = total as f64 / t.len() as f64;
        assert!(
            (1000.0..6000.0).contains(&mean),
            "mean transfer {mean} outside the calibrated band"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let t = Trace::generate(&TraceSpec::default(), 7);
        // Rank-0 document should be requested far more often than a
        // mid-rank one.
        let count = |id: u32| t.requests.iter().filter(|&&r| r == id).count();
        assert!(count(0) > 10 * count(1000).max(1));
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
