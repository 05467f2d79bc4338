//! The estimators every reported number goes through: the median
//! window for rates and the median over windows of a per-window
//! percentile for latencies, each window first divided by how slow the
//! host was around it.
//!
//! A run's one-off stalls (a hypervisor pause, a journal commit) land
//! in one window and the median ignores them; a real slowdown moves
//! every window and the median follows it. What the median cannot
//! ignore is the host itself changing speed for seconds or minutes at a
//! time (README, "The host is the noise") — that is what
//! [`host_adjusted`] is for.

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it (so the median of an even
/// count is the lower of the two middle samples).
///
/// # Panics
///
/// Panics on an empty slice: a phase that produced no window is a bug
/// in the benchmark, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One window's measurement with the host-speed yardstick
/// ([`crate::sys::yardstick`]) read just before and just after it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    pub value: f64,
    pub before_us: f64,
    pub after_us: f64,
}

/// The yardstick read at the quiet points either side of a window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Host {
    pub before_us: f64,
    pub after_us: f64,
}

impl Host {
    /// `value`, measured between the two readings.
    pub fn window(self, value: f64) -> Windowed {
        Windowed {
            value,
            before_us: self.before_us,
            after_us: self.after_us,
        }
    }
}

/// Whether a slower host makes a window's value larger or smaller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A duration: scales with the host's slowness.
    Time,
    /// Work per unit time: scales against it.
    Rate,
}

/// A host-adjusted quantile over windows and what stands behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adjusted {
    /// In reference-host units.
    pub value: f64,
    /// The same quantile of the windows as measured, for the record.
    pub raw: f64,
    /// Windows it was taken over.
    pub windows: usize,
}

/// How slow a host the yardstick is believed about. Measured on the
/// reference box, a window's time grows in proportion to the yardstick
/// up to about here (1.1 → 1.02–1.14, 1.2 → 1.20, 1.4 → 1.38–1.40, 1.5 →
/// 1.41–1.47); past it real code stops following (1.6–1.8 → 1.40–1.49,
/// and in one host state 1.9–2.1 → 1.24–1.33).
const TRUSTED_UP_TO: f64 = 1.5;

/// The `p`-th percentile (50 for all but `setup_s`) over windows of
/// each window's value expressed in reference-host units: a time
/// divided, a rate multiplied, by the host's slowness around it — the
/// mean of its two yardstick readings over `reference_us`, capped at
/// [`TRUSTED_UP_TO`].
///
/// # Panics
///
/// Panics on an empty slice (see [`percentile`]).
pub fn host_adjusted(windows: &[Windowed], kind: Kind, p: f64, reference_us: f64) -> Adjusted {
    let adjusted: Vec<f64> = windows
        .iter()
        .map(|w| {
            let slowness = ((w.before_us + w.after_us) / 2.0 / reference_us).min(TRUSTED_UP_TO);
            match kind {
                Kind::Time => w.value / slowness,
                Kind::Rate => w.value * slowness,
            }
        })
        .collect();
    let raw: Vec<f64> = windows.iter().map(|w| w.value).collect();
    Adjusted {
        value: percentile(&adjusted, p),
        raw: percentile(&raw, p),
        windows: windows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 2000 samples leave exactly 20 beyond the p99.
        let w: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 1980.0);
    }

    fn w(value: f64, before_us: f64, after_us: f64) -> Windowed {
        Windowed {
            value,
            before_us,
            after_us,
        }
    }

    #[test]
    fn a_slow_host_is_divided_out_of_times_and_into_rates() {
        // The same 100 us of work seen on a quiet host and on one
        // running 1.5x slow: both read 100 reference microseconds.
        let mut times = vec![w(100.0, 1000.0, 1000.0); 3];
        times.extend(vec![w(140.0, 1300.0, 1500.0); 4]);
        let t = host_adjusted(&times, Kind::Time, 50.0, 1000.0);
        assert_eq!((t.value, t.raw, t.windows), (100.0, 140.0, 7));

        let rates: Vec<Windowed> = times
            .iter()
            .map(|x| w(1e4 / x.value, x.before_us, x.after_us))
            .collect();
        let r = host_adjusted(&rates, Kind::Rate, 50.0, 1000.0);
        assert!((r.value - 100.0).abs() < 1e-9);
        // The reference only sets the unit: a box that runs the
        // yardstick twice as slowly counts twice the time.
        assert_eq!(host_adjusted(&times, Kind::Time, 50.0, 2000.0).value, 200.0);
    }

    #[test]
    fn the_quantile_is_taken_after_adjusting() {
        // Measured, the slow-host window is the largest; adjusted, it
        // is the smallest.
        let windows = [
            w(100.0, 1000.0, 1000.0),
            w(110.0, 1000.0, 1000.0),
            w(120.0, 1000.0, 1000.0),
            w(135.0, 1500.0, 1500.0),
        ];
        let q = host_adjusted(&windows, Kind::Time, 25.0, 1000.0);
        assert_eq!((q.value, q.raw), (90.0, 100.0));
    }

    #[test]
    fn the_yardstick_is_believed_only_so_far() {
        // A yardstick reading 2x slow divides by 1.5, not by 2.
        let windows = [w(150.0, 2000.0, 2000.0)];
        assert_eq!(
            host_adjusted(&windows, Kind::Time, 50.0, 1000.0).value,
            100.0
        );
        assert_eq!(
            host_adjusted(&windows, Kind::Rate, 50.0, 1000.0).value,
            225.0
        );
    }
}
