//! Terminal visualization helpers: sparklines for run metrics (wake fronts,
//! per-node loads, trial distributions).

/// The eight Unicode block heights a sparkline cell can take, lowest first.
pub const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The block for a fraction `t` of full height: `t` in `[0, 1]` maps to the
/// nearest of the eight [`BLOCKS`]; values outside (and NaN) clamp to the
/// ends.
pub fn block(t: f64) -> char {
    let idx = (t * (BLOCKS.len() - 1) as f64).round() as usize;
    BLOCKS[idx.min(BLOCKS.len() - 1)]
}

/// Renders a sparkline of the values using Unicode block characters,
/// scaled linearly between the series minimum and maximum.
///
/// Empty input renders an empty string; constant input renders mid-height
/// blocks.
///
/// # Example
///
/// ```
/// let line = wakeup_sim::viz::sparkline(&[1.0, 2.0, 4.0, 8.0]);
/// assert_eq!(line.chars().count(), 4);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| block(if hi > lo { (v - lo) / (hi - lo) } else { 0.5 }))
        .collect()
}

/// Renders the growth of the awake set over time as a sparkline plus
/// endpoints, from a run's wake ticks.
pub fn wake_front_sparkline(wake_ticks: &[Option<u64>], samples: usize) -> String {
    let mut ticks: Vec<u64> = wake_ticks.iter().copied().flatten().collect();
    if ticks.is_empty() {
        return String::from("(nobody woke)");
    }
    ticks.sort_unstable();
    let end = *ticks.last().unwrap();
    let samples = samples.max(2);
    let series: Vec<f64> = (0..samples)
        .map(|i| {
            let t = end as f64 * i as f64 / (samples - 1) as f64;
            ticks.iter().take_while(|&&x| x as f64 <= t).count() as f64
        })
        .collect();
    format!(
        "awake 1 → {} over {:.1} units  {}",
        ticks.len(),
        end as f64 / crate::metrics::TICKS_PER_UNIT as f64,
        sparkline(&series)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        // Constant series renders uniformly.
        let c = sparkline(&[3.0, 3.0, 3.0]);
        let chars: Vec<char> = c.chars().collect();
        assert!(chars.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn wake_front_renders() {
        use crate::metrics::TICKS_PER_UNIT;
        let ticks = vec![
            Some(0),
            Some(TICKS_PER_UNIT),
            Some(2 * TICKS_PER_UNIT),
            None,
        ];
        let s = wake_front_sparkline(&ticks, 8);
        assert!(s.contains("awake 1 → 3"));
        assert!(s.contains("2.0 units"));
        assert_eq!(wake_front_sparkline(&[None], 4), "(nobody woke)");
    }
}
