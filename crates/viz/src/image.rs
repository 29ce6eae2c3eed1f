//! RGB images, PPM export and a run-length codec.

/// An 8-bit RGB pixel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Rgb(pub u8, pub u8, pub u8);

/// A dense RGB image.
#[derive(Clone, PartialEq, Debug)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixels.
    pub pixels: Vec<Rgb>,
}

impl Image {
    /// Black image.
    pub fn new(width: usize, height: usize) -> Self {
        Image { width, height, pixels: vec![Rgb::default(); width * height] }
    }

    /// Pixel accessor.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> Rgb {
        self.pixels[y * self.width + x]
    }

    /// Mutable pixel accessor.
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut Rgb {
        &mut self.pixels[y * self.width + x]
    }

    /// Uncompressed size in bytes (24 bpp).
    pub fn byte_len(&self) -> u64 {
        (self.pixels.len() * 3) as u64
    }

    /// Encode as binary PPM (P6).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.pixels.len() * 3);
        for p in &self.pixels {
            out.extend_from_slice(&[p.0, p.1, p.2]);
        }
        out
    }

    /// Flat RGB bytes (the workbench frame payload).
    pub fn to_rgb_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            out.extend_from_slice(&[p.0, p.1, p.2]);
        }
        out
    }

    /// Fraction of non-black pixels (rendering sanity metric).
    pub fn coverage(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let lit = self.pixels.iter().filter(|p| p.0 > 0 || p.1 > 0 || p.2 > 0).count();
        lit as f64 / self.pixels.len() as f64
    }
}

/// Run-length encode RGB bytes: `(count, r, g, b)` quads, count ≤ 255.
/// The simple lossless scheme the remote-display ablation uses — synthetic
/// renderings have large flat regions.
pub fn rle_encode(rgb: &[u8]) -> Vec<u8> {
    assert_eq!(rgb.len() % 3, 0, "RGB stream length must be a multiple of 3");
    let mut out = Vec::new();
    let mut i = 0;
    while i < rgb.len() {
        let px = [rgb[i], rgb[i + 1], rgb[i + 2]];
        let mut run = 1u16;
        while run < 255 {
            let j = i + (run as usize) * 3;
            if j + 2 >= rgb.len() || [rgb[j], rgb[j + 1], rgb[j + 2]] != px {
                break;
            }
            run += 1;
        }
        out.push(run as u8);
        out.extend_from_slice(&px);
        i += run as usize * 3;
    }
    out
}

/// Decode the RLE stream back to RGB bytes.
pub fn rle_decode(rle: &[u8]) -> Vec<u8> {
    assert_eq!(rle.len() % 4, 0, "RLE stream length must be a multiple of 4");
    let mut out = Vec::new();
    for quad in rle.chunks_exact(4) {
        for _ in 0..quad[0] {
            out.extend_from_slice(&quad[1..4]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_access() {
        let mut img = Image::new(4, 3);
        *img.at_mut(2, 1) = Rgb(10, 20, 30);
        assert_eq!(img.at(2, 1), Rgb(10, 20, 30));
        assert_eq!(img.at(0, 0), Rgb(0, 0, 0));
        assert_eq!(img.byte_len(), 36);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(10, 5);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n10 5\n255\n"));
        assert_eq!(ppm.len(), 12 + 150);
    }

    #[test]
    fn rle_roundtrip_flat() {
        let img = Image::new(100, 100);
        let rgb = img.to_rgb_bytes();
        let enc = rle_encode(&rgb);
        assert!(enc.len() < rgb.len() / 50, "flat image should compress hard");
        assert_eq!(rle_decode(&enc), rgb);
    }

    #[test]
    fn rle_roundtrip_noisy() {
        // Worst case: every pixel different.
        let rgb: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        let enc = rle_encode(&rgb);
        assert_eq!(rle_decode(&enc), rgb);
        // Expansion bounded by 4/3.
        assert!(enc.len() <= rgb.len() * 4 / 3 + 4);
    }

    #[test]
    fn rle_run_boundary() {
        // A run longer than 255 must split correctly.
        let mut rgb = Vec::new();
        for _ in 0..300 {
            rgb.extend_from_slice(&[7, 8, 9]);
        }
        let enc = rle_encode(&rgb);
        assert_eq!(rle_decode(&enc), rgb);
        assert_eq!(enc.len(), 8); // two quads: 255 + 45
    }

    #[test]
    fn coverage_metric() {
        let mut img = Image::new(2, 2);
        assert_eq!(img.coverage(), 0.0);
        *img.at_mut(0, 0) = Rgb(1, 0, 0);
        assert_eq!(img.coverage(), 0.25);
    }
}
