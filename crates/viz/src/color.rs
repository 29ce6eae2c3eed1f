//! Colormaps: grayscale anatomy and the hot overlay of the FIRE display.

use crate::image::Rgb;

/// Map an intensity in `[lo, hi]` to grayscale.
pub fn grayscale(v: f32, lo: f32, hi: f32) -> Rgb {
    if hi <= lo {
        return Rgb(0, 0, 0);
    }
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    let g = (t * 255.0) as u8;
    Rgb(g, g, g)
}

/// The "hot" map used for colour-coded correlation coefficients: black →
/// red → yellow → white as `t` goes 0 → 1.
pub fn hot(t: f32) -> Rgb {
    let t = t.clamp(0.0, 1.0);
    let r = (3.0 * t).min(1.0);
    let g = (3.0 * t - 1.0).clamp(0.0, 1.0);
    let b = (3.0 * t - 2.0).clamp(0.0, 1.0);
    Rgb((r * 255.0) as u8, (g * 255.0) as u8, (b * 255.0) as u8)
}

/// Map a correlation coefficient in `[clip, 1]` onto the hot scale
/// (values at the clip level are dark red, a perfect correlation is
/// white) — the paper's "color-coded correlation coefficient" overlay.
/// At a clip level of 1 or more the range is empty and only a perfect
/// correlation passes it, so every coefficient maps to white.
pub fn correlation_color(c: f32, clip: f32) -> Rgb {
    let t = if clip >= 1.0 { 1.0 } else { ((c - clip) / (1.0 - clip)).clamp(0.0, 1.0) };
    // Keep a minimum brightness so clip-level voxels are visible.
    hot(0.25 + 0.75 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grayscale_endpoints() {
        assert_eq!(grayscale(0.0, 0.0, 100.0), Rgb(0, 0, 0));
        assert_eq!(grayscale(100.0, 0.0, 100.0), Rgb(255, 255, 255));
        assert_eq!(grayscale(50.0, 0.0, 100.0), Rgb(127, 127, 127));
        // Clamping.
        assert_eq!(grayscale(-10.0, 0.0, 100.0), Rgb(0, 0, 0));
        assert_eq!(grayscale(1e9, 0.0, 100.0), Rgb(255, 255, 255));
        // Degenerate range.
        assert_eq!(grayscale(5.0, 1.0, 1.0), Rgb(0, 0, 0));
    }

    #[test]
    fn hot_progression() {
        assert_eq!(hot(0.0), Rgb(0, 0, 0));
        assert_eq!(hot(1.0), Rgb(255, 255, 255));
        let mid = hot(0.4);
        assert!(mid.0 > mid.1 && mid.1 >= mid.2, "{mid:?}");
        // Monotone in red channel.
        let mut last = 0;
        for i in 0..=10 {
            let c = hot(i as f32 / 10.0);
            assert!(c.0 >= last);
            last = c.0;
        }
    }

    #[test]
    fn correlation_color_visible_at_clip() {
        let c = correlation_color(0.5, 0.5);
        assert!(c.0 > 100, "clip-level overlay must be visible: {c:?}");
        // A perfect correlation is white, at a clip level of 1 or more too.
        for (c, clip) in [(1.0, 0.5), (1.0, 1.0), (1.5, 1.0), (2.0, 1.5)] {
            assert_eq!(correlation_color(c, clip), Rgb(255, 255, 255), "{c} at clip {clip}");
        }
    }
}
