//! What every workload shares: the run's arguments and time budget,
//! the rep series with its summary, and the report a workload fills.

use crate::check::Counts;
use crate::speed::{Clock, Timing};
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark process: arguments, time budget and the clock.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// The whole process aims to end this many seconds after it began.
    pub seconds: f64,
    /// Layers run (`--trace 1`) instead of the plain run.
    pub trace: bool,
    /// Where span files go; spans are not written without it.
    pub out: Option<PathBuf>,
    pub started: Instant,
    pub clock: Clock,
}

impl Run {
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether another piece of work estimated at `est_s` seconds
    /// still ends inside the budget.
    pub fn room_for(&self, est_s: f64) -> bool {
        self.elapsed() + est_s <= self.seconds
    }

    /// Repeats `rep` at least `min_reps` times and then for as long as
    /// one more repetition fits the budget.
    pub fn reps(&mut self, min_reps: usize, mut rep: impl FnMut(&mut Run, usize)) -> usize {
        let mut n = 0;
        let mut longest = 0.0f64;
        while n < min_reps || self.room_for(longest) {
            let t = Instant::now();
            rep(self, n);
            longest = longest.max(t.elapsed().as_secs_f64());
            n += 1;
        }
        n
    }
}

/// The timings of the timed reps of one configuration.
#[derive(Default, Clone)]
pub struct Series(pub Vec<Timing>);

impl Series {
    pub fn push(&mut self, t: Timing) {
        self.0.push(t);
    }

    /// Speed-corrected seconds per rep.
    pub fn corrected(&self) -> Vec<f64> {
        self.0.iter().map(Timing::s).collect()
    }

    pub fn raw(&self) -> Vec<f64> {
        self.0.iter().map(|t| t.raw_s).collect()
    }

    /// Median speed-corrected seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.corrected())
    }

    /// Median wall seconds as the clock read them, uncorrected.
    pub fn raw_median_s(&self) -> f64 {
        stats::median(&self.raw())
    }

    /// Median of the rep-by-rep differences to `twin`, in corrected
    /// seconds. Rep `i` of the twin ran right after rep `i` of `self`,
    /// so the pair saw the same machine and much of its noise cancels.
    pub fn median_over(&self, twin: &Series) -> f64 {
        self.median_diff(twin, Timing::s)
    }

    /// The same difference in uncorrected wall seconds.
    pub fn raw_median_over(&self, twin: &Series) -> f64 {
        self.median_diff(twin, |t| t.raw_s)
    }

    fn median_diff(&self, twin: &Series, s: impl Fn(&Timing) -> f64) -> f64 {
        let diffs: Vec<f64> = self
            .0
            .iter()
            .zip(&twin.0)
            .map(|(a, b)| s(a) - s(b))
            .collect();
        stats::median(&diffs)
    }

    /// (max − min) ÷ median of the corrected reps.
    pub fn spread(&self) -> f64 {
        let c = self.corrected();
        let m = stats::median(&c);
        if c.is_empty() || m == 0.0 {
            0.0
        } else {
            (stats::max(&c) - stats::min(&c)) / m
        }
    }

    /// Median speed factor of the reps.
    pub fn factor(&self) -> f64 {
        stats::median(&self.0.iter().map(|t| t.factor).collect::<Vec<_>>())
    }

    /// `median 2.310 s (min 2.280, max 2.400; raw median 2.350; 5 reps)`.
    pub fn describe(&self) -> String {
        let c = self.corrected();
        format!(
            "median {:.4} s (min {:.4}, max {:.4}; raw median {:.4}; {} reps) [raw s @ probe ms before/after:{}]",
            stats::median(&c),
            stats::min(&c),
            stats::max(&c),
            stats::median(&self.raw()),
            c.len(),
            self.0
                .iter()
                .map(|t| format!(" {:.4}@{:.2}/{:.2}", t.raw_s, t.before_ms, t.after_ms))
                .collect::<String>()
        )
    }
}

/// How long one chunk of timed calls lasts. Shorter chunks (a few
/// milliseconds) proved too short for the probes around them: the
/// machine's speed moved between the probe and the chunk, and the
/// spread of the corrected median tripled in a noisy hour.
const CHUNK_SECONDS: f64 = 0.05;
/// Chunks taken, one after the other, by one call of [`Chunks::sample`].
const CHUNKS_PER_SAMPLE: usize = 3;

/// Timed calls taken in chunks spread over the run, so that a burst of
/// machine noise spoils a chunk and not the statistic: percentiles are
/// taken per chunk, and the chunk at the first quartile counts. Set-up
/// code is allocation-heavy and slows more than the speed probe when
/// the host is busy, so the correction leaves the chunks of a slow phase
/// too high; the first quartile sits among the chunks of the fast phase,
/// where the factor is near 1, and unlike the minimum it is not the one
/// chunk whose probes a burst inflated. (Over ten runs the median chunk
/// spread 5 to 16%, the lowest 4 to 13%, the first quartile 4 to 7%.) A
/// chunk is its calls' raw seconds and the speed factor of the probes
/// around it.
#[derive(Default)]
pub struct Chunks(Vec<(Vec<f64>, f64)>);

impl Chunks {
    /// Takes [`CHUNKS_PER_SAMPLE`] chunks: each times calls of `call`
    /// for [`CHUNK_SECONDS`] between two speed probes.
    pub fn sample(&mut self, clock: &mut Clock, mut call: impl FnMut()) {
        for _ in 0..CHUNKS_PER_SAMPLE {
            let (raw, t) = clock.time(|| {
                let started = Instant::now();
                let mut raw = Vec::new();
                while raw.len() < 10 || started.elapsed().as_secs_f64() < CHUNK_SECONDS {
                    let t = Instant::now();
                    call();
                    raw.push(t.elapsed().as_secs_f64());
                }
                raw
            });
            self.push(raw, t);
        }
    }

    /// Keeps already timed raw seconds, measured under `t`, as a chunk.
    pub fn push(&mut self, raw_s: Vec<f64>, t: Timing) {
        self.0.push((raw_s, t.factor));
    }

    /// First quartile over chunks of each chunk's percentile `p`, in
    /// speed-corrected seconds.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentile_by(p, |factor| factor)
    }

    /// The same in uncorrected wall seconds.
    pub fn raw_percentile(&self, p: f64) -> f64 {
        self.percentile_by(p, |_| 1.0)
    }

    fn percentile_by(&self, p: f64, scale: impl Fn(f64) -> f64) -> f64 {
        let mut per_chunk: Vec<f64> = self
            .0
            .iter()
            .map(|(raw, factor)| stats::percentiles(&mut raw.clone(), &[p])[0] * scale(*factor))
            .collect();
        stats::percentiles(&mut per_chunk, &[25.0])[0]
    }

    /// `3 chunks, 600 calls [raw median us @ factor: 41.2@0.98 …]`.
    pub fn describe(&self) -> String {
        format!(
            "{} chunks, {} calls [raw median us @ factor:{}]",
            self.0.len(),
            self.0.iter().map(|(raw, _)| raw.len()).sum::<usize>(),
            self.0
                .iter()
                .map(|(raw, factor)| format!(" {:.1}@{factor:.3}", stats::median(raw) * 1e6))
                .collect::<String>()
        )
    }
}

/// What a workload hands back: the op accounting, every violated
/// output check, and its metrics by name.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed reps (datagrams, requests,
    /// loads — the unit a user of the workload counts in).
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// One line per violated output check; any line makes the run
    /// incorrect.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// The timings among the end-to-end metrics as the wall clock read
    /// them, before the speed correction.
    pub uncorrected: BTreeMap<String, f64>,
    /// The exact simulated statistics of rep 0, printed for pinning.
    pub counts: Counts,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a timing of the plain run: the speed-corrected value as
    /// the metric, the wall-clock value beside it.
    pub fn set_timing(&mut self, name: &str, corrected: f64, raw: f64) {
        self.set(name, corrected);
        self.uncorrected.insert(name.to_string(), raw);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// What a layers run says about its own plain reps: their spread,
    /// their speed factor, and their wall-clock median before the
    /// correction (corrected = raw × factor, rep by rep).
    pub fn set_bench(&mut self, plain: &Series) {
        self.set("bench.rep_spread", plain.spread());
        self.set("bench.speed_factor", plain.factor());
        self.set("bench.raw_rep_wall_s", plain.raw_median_s());
    }

    /// The per-layer metrics every `Sim`-backed layers run reads off
    /// the exact counts of a rep that took `rep_s` seconds.
    pub fn set_sim_counts(&mut self, c: &Counts, rep_s: f64) {
        let dispatches = c["dispatches"];
        self.set("netsim.events", c["events"] as f64);
        self.set("netsim.events_per_s", c["events"] as f64 / rep_s);
        self.set(
            "netsim.queue_drops",
            (c["link_drops"] + c["cpu_drops"]) as f64,
        );
        self.set("netsim.queue_depth_p99", c["queue_depth_p99"] as f64);
        self.set("runtime.dispatches", dispatches as f64);
        self.set(
            "runtime.fallback_share",
            c["fallback_ip"] as f64 / (dispatches + c["fallback_ip"]).max(1) as f64,
        );
        self.set("runtime.admission_shed", c["admission_shed"] as f64);
        self.set(
            "vm.steps_per_dispatch",
            c["vm_steps"] as f64 / dispatches.max(1) as f64,
        );
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seconds: f64) -> Run {
        Run {
            workload: "t".into(),
            seed: 1,
            seconds,
            trace: false,
            out: None,
            started: Instant::now(),
            clock: Clock::default(),
        }
    }

    #[test]
    fn reps_run_the_minimum_even_without_budget() {
        let mut r = run(0.0);
        let mut seen = Vec::new();
        let n = r.reps(3, |_, i| seen.push(i));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn reps_stop_when_one_more_would_not_fit() {
        let mut r = run(0.25);
        let n = r.reps(1, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(60))
        });
        assert!(
            (2..=4).contains(&n),
            "ran {n} reps of 60 ms in a 250 ms budget"
        );
        assert!(r.elapsed() < 0.4);
    }

    #[test]
    fn series_summarises_corrected_times() {
        let mut s = Series::default();
        for (raw_s, factor) in [(2.0, 1.0), (3.0, 0.5), (4.0, 1.0)] {
            s.push(Timing {
                raw_s,
                before_ms: 0.0,
                after_ms: 0.0,
                factor,
            });
        }
        assert_eq!(s.corrected(), vec![2.0, 1.5, 4.0]);
        assert_eq!(s.median_s(), 2.0);
        assert_eq!(s.spread(), 1.25);
        assert_eq!(s.factor(), 1.0);
        assert!(s.describe().contains("3 reps"));
        let mut twin = Series::default();
        for raw_s in [1.0, 1.25, 1.0] {
            twin.push(Timing {
                raw_s,
                before_ms: 0.0,
                after_ms: 0.0,
                factor: 1.0,
            });
        }
        assert_eq!(s.median_over(&twin), 1.0);
        assert_eq!(s.raw_median_s(), 3.0);
        assert_eq!(s.raw_median_over(&twin), 1.75);
    }

    #[test]
    fn chunk_percentiles_ignore_a_spoiled_chunk() {
        let mut c = Chunks::default();
        let t = Timing {
            raw_s: 0.0,
            before_ms: 0.0,
            after_ms: 0.0,
            factor: 2.0,
        };
        let clean: Vec<f64> = (1..=100).map(f64::from).collect();
        c.push(clean.clone(), t);
        c.push(clean.iter().map(|x| x * 10.0).collect(), t); // a burst
        c.push(clean, t);
        assert_eq!(c.percentile(50.0), 100.0);
        assert_eq!(c.percentile(95.0), 190.0);
        assert_eq!(c.raw_percentile(50.0), 50.0);
        // The first quartile of the chunks counts, not their median.
        let mut q = Chunks::default();
        for v in [4.0, 1.0, 3.0, 2.0, 8.0, 6.0, 7.0, 5.0] {
            q.push(vec![v], Timing { factor: 1.0, ..t });
        }
        assert_eq!(q.percentile(50.0), 2.0);
        assert!(c
            .describe()
            .starts_with("3 chunks, 300 calls [raw median us @ factor: 50500000.0@2.000 "));
        let mut timed = Chunks::default();
        let mut calls = 0;
        timed.sample(&mut Clock::default(), || calls += 1);
        assert!(calls >= 10);
        assert!(timed
            .describe()
            .starts_with(&format!("{CHUNKS_PER_SAMPLE} chunks, {calls} calls")));
        assert!(timed.percentile(50.0) >= 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
