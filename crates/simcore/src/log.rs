//! Sampled time series used to regenerate the paper's timeline figures
//! (Figure 3's memory footprint, Figure 11(c)'s active-thread counts).

use crate::time::SimTime;

/// One sample of a time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// The sampled value (bytes, thread counts, ... depending on series).
    pub value: f64,
}

/// A named, append-only time series.
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Series name (e.g. `"heap_used"`, `"active_map_threads"`).
    pub name: String,
    /// Samples in non-decreasing time order.
    pub samples: Vec<Sample>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Appends a sample; out-of-order appends are clamped to the last
    /// sample's timestamp so the series stays monotonic.
    pub fn push(&mut self, at: SimTime, value: f64) {
        let at = match self.samples.last() {
            Some(last) if at < last.at => last.at,
            _ => at,
        };
        self.samples.push(Sample { at, value });
    }

    /// The maximum value seen, or 0.0 for an empty series.
    pub fn max_value(&self) -> f64 {
        self.samples.iter().map(|s| s.value).fold(0.0, f64::max)
    }

    /// The time-weighted average value (each sample holds until the next).
    pub fn time_weighted_mean(&self) -> f64 {
        if self.samples.len() < 2 {
            return self.samples.first().map_or(0.0, |s| s.value);
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for w in self.samples.windows(2) {
            let dt = w[1].at.since(w[0].at).as_secs_f64();
            area += w[0].value * dt;
            span += dt;
        }
        if span == 0.0 {
            self.samples.last().map_or(0.0, |s| s.value)
        } else {
            area / span
        }
    }

    /// Downsamples to at most `buckets` points by keeping each bucket's
    /// maximum (peaks matter for memory plots).
    pub fn downsample_max(&self, buckets: usize) -> Vec<Sample> {
        if buckets == 0 || self.samples.len() <= buckets {
            return self.samples.clone();
        }
        let per = self.samples.len().div_ceil(buckets);
        self.samples
            .chunks(per)
            .map(|c| {
                let peak = c
                    .iter()
                    .max_by(|a, b| a.value.total_cmp(&b.value))
                    .expect("non-empty chunk");
                Sample {
                    at: c[c.len() - 1].at,
                    value: peak.value,
                }
            })
            .collect()
    }
}

/// A collection of named series recorded during a run.
///
/// Series stay in first-use order in a vector; a name → index map backs
/// [`EventLog::record`], which monitors call on every observation (the
/// previous per-record linear name scan was measurable in profiles).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    series: Vec<Series>,
    index: std::collections::BTreeMap<String, usize>,
}

/// A snapshot of an [`EventLog`]'s append frontier (see
/// [`EventLog::mark`]).
#[derive(Clone, Debug)]
pub struct LogMark {
    lens: Vec<usize>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn series_index(&mut self, name: &str) -> usize {
        match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.series.push(Series::new(name));
                self.index.insert(name.to_string(), i);
                i
            }
        }
    }

    /// Appends a sample to `name`, creating the series on first use.
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        let i = self.series_index(name);
        self.series[i].push(at, value);
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.index.get(name).map(|&i| &self.series[i])
    }

    /// All recorded series.
    pub fn all(&self) -> &[Series] {
        &self.series
    }

    /// Snapshots the log's append frontier (per-series sample counts).
    /// Cheap: one `usize` per series. The shard executor marks every
    /// node log before a speculative round so an overshot round can be
    /// [`EventLog::rewind`]-ed away.
    pub fn mark(&self) -> LogMark {
        LogMark {
            lens: self.series.iter().map(|s| s.samples.len()).collect(),
        }
    }

    /// Truncates the log back to a [`EventLog::mark`]: samples appended
    /// since are dropped, and series created since are removed entirely
    /// (index included).
    pub fn rewind(&mut self, mark: &LogMark) {
        for (i, s) in self.series.iter_mut().enumerate() {
            s.samples.truncate(mark.lens.get(i).copied().unwrap_or(0));
        }
        if self.series.len() > mark.lens.len() {
            for s in self.series.drain(mark.lens.len()..) {
                self.index.remove(&s.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn push_keeps_monotonic_time() {
        let mut s = Series::new("x");
        s.push(t(5), 1.0);
        s.push(t(3), 2.0); // out of order: clamped to t(5)
        assert_eq!(s.samples[1].at, t(5));
    }

    #[test]
    fn max_and_mean() {
        let mut s = Series::new("mem");
        s.push(t(0), 10.0);
        s.push(t(10), 30.0);
        s.push(t(20), 10.0);
        assert_eq!(s.max_value(), 30.0);
        // 10 for 10s then 30 for 10s => mean 20.
        assert!((s.time_weighted_mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn downsample_preserves_peak() {
        let mut s = Series::new("mem");
        for i in 0..100 {
            let v = if i == 57 { 999.0 } else { 1.0 };
            s.push(t(i), v);
        }
        let ds = s.downsample_max(10);
        assert!(ds.len() <= 10);
        assert!(ds.iter().any(|x| x.value == 999.0));
    }

    #[test]
    fn log_creates_and_looks_up_series() {
        let mut log = EventLog::new();
        log.record("heap", t(0), 1.0);
        log.record("heap", t(1), 2.0);
        log.record("threads", t(1), 4.0);
        assert_eq!(log.series("heap").unwrap().samples.len(), 2);
        assert_eq!(log.series("threads").unwrap().samples.len(), 1);
        assert!(log.series("missing").is_none());
        let names: Vec<&str> = log.all().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["heap", "threads"]);
    }

    #[test]
    fn empty_series_statistics() {
        let s = Series::new("empty");
        assert_eq!(s.max_value(), 0.0);
        assert_eq!(s.time_weighted_mean(), 0.0);
        assert!(s.downsample_max(4).is_empty());
    }
}
