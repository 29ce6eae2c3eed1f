//! The 2-D display of Figure 3: "for those pixels of each slice, for
//! which the correlation coefficient is larger than an adjustable
//! clip-level, the anatomical data are overlayed with the color-coded
//! correlation coefficient."

use gtw_scan::volume::Volume;

use crate::color::{correlation_color, grayscale};
use crate::image::Image;

/// Render slice `z`: grayscale anatomy with correlation overlay above
/// `clip`.
pub fn render_overlay(anatomy: &Volume, correlation: &Volume, z: usize, clip: f32) -> Image {
    assert_eq!(anatomy.dims, correlation.dims, "volume dims mismatch");
    assert!(z < anatomy.dims.nz, "slice out of range");
    let (lo, hi) = anatomy.min_max();
    let d = anatomy.dims;
    let mut img = Image::new(d.nx, d.ny);
    for y in 0..d.ny {
        for x in 0..d.nx {
            let c = correlation.at(x, y, z);
            *img.at_mut(x, y) = if c >= clip {
                correlation_color(c, clip)
            } else {
                grayscale(anatomy.at(x, y, z), lo, hi)
            };
        }
    }
    img
}

/// Render a montage of all slices side by side (the multi-slice canvas of
/// the FIRE GUI), `cols` slices per row.
pub fn render_montage(anatomy: &Volume, correlation: &Volume, clip: f32, cols: usize) -> Image {
    assert!(cols > 0, "montage needs at least one column");
    let d = anatomy.dims;
    let rows = d.nz.div_ceil(cols);
    let mut img = Image::new(cols * d.nx, rows * d.ny);
    for z in 0..d.nz {
        let slice = render_overlay(anatomy, correlation, z, clip);
        let ox = (z % cols) * d.nx;
        let oy = (z / cols) * d.ny;
        for y in 0..d.ny {
            for x in 0..d.nx {
                *img.at_mut(ox + x, oy + y) = slice.at(x, y);
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::phantom::Phantom;
    use gtw_scan::volume::Dims;

    fn setup() -> (Volume, Volume) {
        let d = Dims::new(32, 32, 4);
        let anatomy = Phantom::standard().anatomy(d);
        let mut corr = Volume::zeros(d);
        // A synthetic activated patch on slice 2.
        for y in 10..15 {
            for x in 10..15 {
                *corr.at_mut(x, y, 2) = 0.8;
            }
        }
        (anatomy, corr)
    }

    #[test]
    fn overlay_pixels_are_hot_others_gray() {
        let (anatomy, corr) = setup();
        let img = render_overlay(&anatomy, &corr, 2, 0.5);
        // Activated pixel: red-dominant.
        let p = img.at(12, 12);
        assert!(p.0 > p.2, "overlay should be hot-coloured: {p:?}");
        // Background pixel: gray (R == G == B).
        let q = img.at(20, 25);
        assert_eq!(q.0, q.1);
        assert_eq!(q.1, q.2);
    }

    #[test]
    fn below_clip_not_overlayed() {
        let (anatomy, corr) = setup();
        let img = render_overlay(&anatomy, &corr, 2, 0.9);
        let p = img.at(12, 12);
        assert_eq!(p.0, p.1, "0.8 < clip 0.9 must render as anatomy: {p:?}");
    }

    #[test]
    fn a_perfect_correlation_at_clip_one_is_white() {
        let (anatomy, mut corr) = setup();
        *corr.at_mut(12, 12, 2) = 1.0;
        let img = render_overlay(&anatomy, &corr, 2, 1.0);
        assert_eq!(img.at(12, 12), crate::image::Rgb(255, 255, 255));
        let p = img.at(13, 12);
        assert_eq!(p.0, p.1, "0.8 < clip 1.0 must render as anatomy: {p:?}");
    }

    #[test]
    fn other_slices_unaffected() {
        let (anatomy, corr) = setup();
        let img = render_overlay(&anatomy, &corr, 0, 0.5);
        for y in 0..32 {
            for x in 0..32 {
                let p = img.at(x, y);
                assert_eq!(p.0, p.1);
            }
        }
    }

    #[test]
    fn montage_tiles_all_slices() {
        let (anatomy, corr) = setup();
        let m = render_montage(&anatomy, &corr, 0.5, 2);
        assert_eq!(m.width, 64);
        assert_eq!(m.height, 64);
        // The activated patch lands in tile (0,1) at local (12,12).
        let p = m.at(12, 32 + 12);
        assert!(p.0 > p.2, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_bounds_checked() {
        let (anatomy, corr) = setup();
        let _ = render_overlay(&anatomy, &corr, 9, 0.5);
    }
}
