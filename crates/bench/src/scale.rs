//! Run-size presets for the experiment harness.

/// How big an experiment run should be.
///
/// The paper's runs use full-size footprints and one million misses of
/// warmup plus one million measured misses; that is `paper()`. The
/// `standard()` preset shrinks footprints 8× and trace lengths ~4× for
/// minute-scale runs with the same qualitative shapes; `quick()` is for
/// CI and unit tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    /// Footprint scale factor applied to every workload pool.
    pub footprint: f64,
    /// Trace-driven warmup misses.
    pub trace_warmup: usize,
    /// Trace-driven measured misses.
    pub trace_measured: usize,
    /// Timing-sim warmup misses per node.
    pub sim_warmup: usize,
    /// Timing-sim measured misses per node.
    pub sim_measured: usize,
    /// Perturbed repetitions for runtime results.
    pub sim_runs: usize,
}

impl Scale {
    /// CI-sized: seconds per figure.
    pub fn quick() -> Self {
        Scale {
            footprint: 1.0 / 64.0,
            trace_warmup: 5_000,
            trace_measured: 20_000,
            sim_warmup: 100,
            sim_measured: 500,
            sim_runs: 1,
        }
    }

    /// Default for `repro`: minutes for the full set of figures.
    pub fn standard() -> Self {
        Scale {
            footprint: 1.0 / 8.0,
            trace_warmup: 100_000,
            trace_measured: 400_000,
            sim_warmup: 500,
            sim_measured: 4_000,
            sim_runs: 2,
        }
    }

    /// Paper-sized: full footprints, 1 M + 1 M misses (long).
    pub fn paper() -> Self {
        Scale {
            footprint: 1.0,
            trace_warmup: 1_000_000,
            trace_measured: 1_000_000,
            sim_warmup: 2_000,
            sim_measured: 15_000,
            sim_runs: 3,
        }
    }

    /// The exact-bits identity string of this scale: every run
    /// parameter, with the footprint as raw `f64` bits so two scales
    /// that differ in *any* way — even by one ULP of footprint —
    /// compare unequal. The fleet's plan identity embeds this string
    /// (in the handshake and the WAL header), so a WAL or a worker
    /// built against a different run size is rejected instead of
    /// silently folded in.
    pub fn identity(&self) -> String {
        format!(
            "{:016x}/{}/{}/{}/{}/{}",
            self.footprint.to_bits(),
            self.trace_warmup,
            self.trace_measured,
            self.sim_warmup,
            self.sim_measured,
            self.sim_runs
        )
    }

    /// Parses a scale name (`quick` / `standard` / `paper`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "standard" => Some(Self::standard()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let q = Scale::quick();
        let s = Scale::standard();
        let p = Scale::paper();
        assert!(q.trace_measured < s.trace_measured && s.trace_measured < p.trace_measured);
        assert!(q.footprint < s.footprint && s.footprint <= p.footprint);
    }

    #[test]
    fn parse_names() {
        assert_eq!(Scale::parse("quick"), Some(Scale::quick()));
        assert_eq!(Scale::parse("standard"), Some(Scale::standard()));
        assert_eq!(Scale::parse("paper"), Some(Scale::paper()));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::default(), Scale::standard());
    }
}
