//! Zoned-recording transfer-rate profiles.
//!
//! Real drives record more sectors on outer tracks (zoned bit
//! recording), so the media transfer rate falls from the outer to the
//! inner cylinders — the Ultrastar 36Z15's "~440 sectors per track"
//! (Table 1) is an average over roughly ten zones. The paper simulates
//! the average; this module supplies the per-zone refinement as an
//! opt-in: a piecewise-constant scale factor over the cylinder range,
//! applied to the nominal media rate by [`crate::DiskMechanics`].

/// A piecewise-constant media-rate profile over the cylinders.
///
/// # Example
///
/// ```
/// use forhdc_sim::zones::ZoneProfile;
///
/// let z = ZoneProfile::ultrastar_like(10_000);
/// assert!(z.scale_at(0) > 1.0);          // outer zone: faster
/// assert!(z.scale_at(9_999) < 1.0);      // inner zone: slower
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneProfile {
    /// `(one_past_last_cylinder, rate_scale)`, ascending by cylinder.
    boundaries: Vec<(u32, f64)>,
}

impl ZoneProfile {
    /// Creates a profile from `(one_past_last_cylinder, scale)` pairs,
    /// ascending; the final entry must cover the whole disk.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, not strictly ascending, or any
    /// scale is not positive and finite.
    pub fn new(boundaries: Vec<(u32, f64)>) -> Self {
        assert!(!boundaries.is_empty(), "need at least one zone");
        let mut prev = 0u32;
        for &(end, scale) in &boundaries {
            assert!(end > prev, "zone boundaries must be strictly ascending");
            assert!(
                scale.is_finite() && scale > 0.0,
                "zone scale must be positive"
            );
            prev = end;
        }
        ZoneProfile { boundaries }
    }

    /// A 9-zone profile shaped like a real Ultrastar: the outer zone
    /// transfers ~22 % faster than the average, the inner ~22 % slower,
    /// with the cylinder-weighted mean scale equal to 1 (so the nominal
    /// average rate of Table 1 is preserved).
    pub fn ultrastar_like(cylinders: u32) -> Self {
        assert!(cylinders >= 9, "too few cylinders for 9 zones");
        let scales = [1.22, 1.17, 1.11, 1.06, 1.0, 0.94, 0.89, 0.83, 0.78];
        let per = cylinders / 9;
        let boundaries = scales
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let end = if i == 8 {
                    cylinders
                } else {
                    (i as u32 + 1) * per
                };
                (end, s)
            })
            .collect();
        ZoneProfile::new(boundaries)
    }

    /// The rate scale at `cylinder` (cylinders past the last boundary
    /// use the innermost zone's scale).
    pub fn scale_at(&self, cylinder: u32) -> f64 {
        for &(end, scale) in &self.boundaries {
            if cylinder < end {
                return scale;
            }
        }
        self.boundaries.last().expect("non-empty").1
    }

    /// Cylinder-weighted mean scale (≈1 for calibrated profiles).
    pub fn mean_scale(&self) -> f64 {
        let mut prev = 0u32;
        let mut acc = 0.0;
        for &(end, scale) in &self.boundaries {
            acc += (end - prev) as f64 * scale;
            prev = end;
        }
        acc / prev as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ultrastar_profile_is_calibrated() {
        let z = ZoneProfile::ultrastar_like(9_988);
        let mut zones = (0..9_988).map(|c| z.scale_at(c)).collect::<Vec<_>>();
        zones.dedup();
        assert_eq!(zones.len(), 9);
        assert!(
            (z.mean_scale() - 1.0).abs() < 0.01,
            "mean {}",
            z.mean_scale()
        );
        // Monotone outer -> inner.
        let mut prev = f64::INFINITY;
        for c in (0..9_988).step_by(1_110) {
            let s = z.scale_at(c);
            assert!(s <= prev);
            prev = s;
        }
    }

    #[test]
    fn scale_lookup_honours_boundaries() {
        let z = ZoneProfile::new(vec![(10, 2.0), (20, 1.0), (30, 0.5)]);
        assert_eq!(z.scale_at(0), 2.0);
        assert_eq!(z.scale_at(9), 2.0);
        assert_eq!(z.scale_at(10), 1.0);
        assert_eq!(z.scale_at(29), 0.5);
        assert_eq!(z.scale_at(1_000), 0.5); // past the end: innermost
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_zones_panic() {
        let _ = ZoneProfile::new(vec![(10, 1.0), (10, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_scale_panics() {
        let _ = ZoneProfile::new(vec![(10, 0.0)]);
    }
}
