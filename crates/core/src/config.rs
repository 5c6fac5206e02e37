//! ASAP configuration and builder.

/// Tunable parameters of the ASAP search.
#[derive(Debug, Clone, PartialEq)]
pub struct AsapConfig {
    /// Target display resolution in pixels — the number of points the final
    /// visualization should contain (§4.4). Default 800, the resolution the
    /// paper renders its user-study plots at.
    pub resolution: usize,
    /// Whether to preaggregate to one point per pixel before searching
    /// (§4.4). Disabling trades orders of magnitude of speed for exact
    /// result quality — Figure 9 quantifies the gap.
    pub preaggregate: bool,
    /// Hard cap on the candidate window, in (preaggregated) points. When
    /// `None` the cap is `max_window_fraction` of the series length. Maps
    /// to the user-specified "maximum window size" of §4.3.3.
    pub max_window: Option<usize>,
    /// Fraction of the series length used as the default window cap and ACF
    /// max lag. The reference implementation uses 1/10.
    pub max_window_fraction: f64,
    /// Minimum ACF value for a peak to become a search candidate (§4.3.3).
    pub correlation_threshold: f64,
    /// Multiplier on the original kurtosis in the preservation constraint:
    /// the search requires `Kurt[Y] ≥ kurtosis_factor · Kurt[X]`. 1.0 is
    /// the paper's constraint; the sensitivity study (Appendix B.2) sweeps
    /// 0.5 / 1.5 / 2.0.
    pub kurtosis_factor: f64,
}

impl Default for AsapConfig {
    fn default() -> Self {
        AsapConfig {
            resolution: 800,
            preaggregate: true,
            max_window: None,
            max_window_fraction: 0.1,
            correlation_threshold: 0.2,
            kurtosis_factor: 1.0,
        }
    }
}

impl AsapConfig {
    /// The effective window cap for a series of `n` (preaggregated) points:
    /// `max_window` when set, else `max(2, n · max_window_fraction)`,
    /// always at most `n − 1`.
    pub fn effective_max_window(&self, n: usize) -> usize {
        let frac = ((n as f64) * self.max_window_fraction).round() as usize;
        let cap = self.max_window.unwrap_or(frac.max(2));
        cap.min(n.saturating_sub(1)).max(1)
    }
}

/// Builder for [`AsapConfig`] / [`crate::Asap`].
#[derive(Debug, Clone, Default)]
pub struct AsapBuilder {
    config: AsapConfig,
}

impl AsapBuilder {
    /// Sets the target display resolution in pixels.
    pub fn resolution(mut self, pixels: usize) -> Self {
        self.config.resolution = pixels.max(1);
        self
    }

    /// Enables or disables pixel-aware preaggregation.
    pub fn preaggregate(mut self, on: bool) -> Self {
        self.config.preaggregate = on;
        self
    }

    /// Caps the search window (in preaggregated points).
    pub fn max_window(mut self, window: usize) -> Self {
        self.config.max_window = Some(window);
        self
    }

    /// Sets the ACF peak correlation threshold.
    pub fn correlation_threshold(mut self, t: f64) -> Self {
        self.config.correlation_threshold = t;
        self
    }

    /// Sets the kurtosis-preservation factor (1.0 = the paper's constraint).
    pub fn kurtosis_factor(mut self, f: f64) -> Self {
        self.config.kurtosis_factor = f;
        self
    }

    /// Finishes building.
    pub fn build(self) -> crate::Asap {
        crate::Asap::with_config(self.config)
    }

    /// Returns the raw configuration without wrapping it in [`crate::Asap`].
    pub fn build_config(self) -> AsapConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AsapConfig::default();
        assert_eq!(c.resolution, 800);
        assert!(c.preaggregate);
        assert_eq!(c.kurtosis_factor, 1.0);
        assert_eq!(c.correlation_threshold, 0.2);
        assert_eq!(c.max_window_fraction, 0.1);
    }

    #[test]
    fn effective_max_window_uses_fraction() {
        let c = AsapConfig::default();
        assert_eq!(c.effective_max_window(1200), 120);
        assert_eq!(c.effective_max_window(10), 2); // floor of 2
    }

    #[test]
    fn effective_max_window_respects_explicit_cap() {
        let c = AsapBuilder::default().max_window(50).build_config();
        assert_eq!(c.effective_max_window(1200), 50);
        // Cap can never reach the series length.
        assert_eq!(c.effective_max_window(30), 29);
    }

    #[test]
    fn builder_sets_all_fields() {
        let c = AsapBuilder::default()
            .resolution(2000)
            .preaggregate(false)
            .max_window(99)
            .correlation_threshold(0.5)
            .kurtosis_factor(1.5)
            .build_config();
        assert_eq!(c.resolution, 2000);
        assert!(!c.preaggregate);
        assert_eq!(c.max_window, Some(99));
        assert_eq!(c.correlation_threshold, 0.5);
        assert_eq!(c.kurtosis_factor, 1.5);
    }

    #[test]
    fn resolution_zero_is_clamped() {
        let c = AsapBuilder::default().resolution(0).build_config();
        assert_eq!(c.resolution, 1);
    }
}
