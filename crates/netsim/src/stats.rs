//! Measurement helpers: time series and derived statistics for the
//! experiment harnesses.

use std::collections::BTreeMap;

/// A `(seconds, value)` time series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Recorded points in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point.
    pub fn push(&mut self, t: f64, v: f64) {
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded value.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Sum of all values.
    pub fn sum(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).sum()
    }

    /// Mean of the values recorded in `[t0, t1)`. Single pass, no
    /// intermediate allocation.
    pub fn avg_between(&self, t0: f64, t1: f64) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0u64);
        for &(t, v) in &self.points {
            if t >= t0 && t < t1 {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Sum of values recorded in `[t0, t1)`.
    pub fn sum_between(&self, t0: f64, t1: f64) -> f64 {
        self.points
            .iter()
            .filter(|&&(t, _)| t >= t0 && t < t1)
            .map(|&(_, v)| v)
            .sum()
    }

    /// The `q`-quantile (0.0–1.0) of values recorded in `[t0, t1)`.
    pub fn percentile_between(&self, t0: f64, t1: f64, q: f64) -> Option<f64> {
        let mut vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= t0 && t < t1)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        let idx = ((vals.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(vals[idx])
    }
}

/// A named collection of series (owned by the simulator).
#[derive(Debug, Clone, Default)]
pub struct SeriesStore {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesStore {
    /// Records `(t, v)` under `name`.
    ///
    /// Windowed queries over the store's series (`avg_between`,
    /// `sum_between`, `percentile_between`) use **half-open** windows
    /// `[t0, t1)`: a point recorded exactly at `t1` belongs to the
    /// *next* window. Record at the start of each measurement interval
    /// so adjacent windows never double-count.
    pub fn record(&mut self, name: &str, t: f64, v: f64) {
        match self.series.get_mut(name) {
            Some(series) => series.push(t, v),
            None => self.series.entry(name.to_owned()).or_default().push(t, v),
        }
    }

    /// Returns a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Iterates over `(name, series)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new();
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        s.push(2.0, 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some(5.0));
        assert_eq!(s.sum(), 9.0);
        assert_eq!(s.avg_between(0.0, 2.0), Some(2.0));
        assert_eq!(s.avg_between(10.0, 20.0), None);
        assert_eq!(s.sum_between(1.0, 3.0), 8.0);
    }

    #[test]
    fn percentiles() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(i as f64 / 100.0, i as f64);
        }
        assert_eq!(s.percentile_between(0.0, 1.0, 0.5), Some(50.0));
        assert_eq!(s.percentile_between(0.0, 1.0, 0.0), Some(0.0));
        assert_eq!(s.percentile_between(0.0, 1.0, 1.0), Some(99.0));
        assert_eq!(s.percentile_between(5.0, 6.0, 0.5), None);
    }

    #[test]
    fn store_groups_by_name() {
        let mut st = SeriesStore::default();
        st.record("a", 0.0, 1.0);
        st.record("a", 1.0, 2.0);
        st.record("b", 0.0, 9.0);
        assert_eq!(st.get("a").unwrap().len(), 2);
        assert_eq!(st.get("b").unwrap().sum(), 9.0);
        assert_eq!(st.iter().count(), 2);
    }
}
