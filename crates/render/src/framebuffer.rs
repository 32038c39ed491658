//! The render target: an RGB color buffer plus a depth buffer.

/// An RGB + depth framebuffer.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// RGB triples in `[0, 1]`, row-major.
    color: Vec<[f64; 3]>,
    /// Depth values; smaller is closer. Initialized to +inf.
    depth: Vec<f64>,
}

impl Framebuffer {
    /// A black framebuffer of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        Framebuffer {
            width,
            height,
            color: vec![[0.0; 3]; width * height],
            depth: vec![f64::INFINITY; width * height],
        }
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Clear to a background color and reset depth.
    pub fn clear(&mut self, rgb: [f64; 3]) {
        for c in &mut self.color {
            *c = rgb;
        }
        for d in &mut self.depth {
            *d = f64::INFINITY;
        }
    }

    /// The color at a pixel (black when out of range).
    pub fn pixel(&self, x: usize, y: usize) -> [f64; 3] {
        if x < self.width && y < self.height {
            self.color[y * self.width + x]
        } else {
            [0.0; 3]
        }
    }

    /// Write a pixel if it passes the depth test.
    pub fn set_pixel(&mut self, x: usize, y: usize, depth: f64, rgb: [f64; 3]) -> bool {
        if x >= self.width || y >= self.height {
            return false;
        }
        let idx = y * self.width + x;
        if depth < self.depth[idx] {
            self.depth[idx] = depth;
            self.color[idx] = rgb;
            true
        } else {
            false
        }
    }

    /// Write a pixel unconditionally (used by the 2-D view, which has no depth).
    pub fn set_pixel_flat(&mut self, x: usize, y: usize, rgb: [f64; 3]) {
        if x < self.width && y < self.height {
            let idx = y * self.width + x;
            self.color[idx] = rgb;
            self.depth[idx] = 0.0;
        }
    }

    /// Number of pixels that have been written (depth < +inf).
    pub fn covered_pixels(&self) -> usize {
        self.depth.iter().filter(|d| d.is_finite()).count()
    }

    /// Serialize as a binary PPM (P6) image.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for c in &self.color {
            for channel in c {
                out.push((channel.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }

    /// Render as ASCII art: one character per pixel, darker luminance → denser
    /// glyph. Used by tests and the figure harness so views can be asserted on
    /// and embedded in EXPERIMENTS.md without image tooling.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let [r, g, b] = self.pixel(x, y);
                let luminance = (0.2126 * r + 0.7152 * g + 0.0722 * b).clamp(0.0, 1.0);
                let idx = (luminance * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Downsample by integer factor (averaging), used to produce small ASCII
    /// previews of large renders.
    pub fn downsample(&self, factor: usize) -> Framebuffer {
        let factor = factor.max(1);
        let w = (self.width / factor).max(1);
        let h = (self.height / factor).max(1);
        let mut out = Framebuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = [0.0f64; 3];
                let mut count = 0usize;
                for sy in 0..factor {
                    for sx in 0..factor {
                        let px = self.pixel(x * factor + sx, y * factor + sy);
                        acc[0] += px[0];
                        acc[1] += px[1];
                        acc[2] += px[2];
                        count += 1;
                    }
                }
                out.set_pixel_flat(
                    x,
                    y,
                    [
                        acc[0] / count as f64,
                        acc[1] / count as f64,
                        acc[2] / count as f64,
                    ],
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The depth at a pixel (+inf when out of range or unwritten).
    fn depth_at(fb: &Framebuffer, x: usize, y: usize) -> f64 {
        if x < fb.width && y < fb.height {
            fb.depth[y * fb.width + x]
        } else {
            f64::INFINITY
        }
    }

    #[test]
    fn depth_test() {
        let mut fb = Framebuffer::new(4, 4);
        assert!(fb.set_pixel(1, 1, 5.0, [1.0, 0.0, 0.0]));
        assert!(
            !fb.set_pixel(1, 1, 6.0, [0.0, 1.0, 0.0]),
            "farther fragment must be rejected"
        );
        assert!(
            fb.set_pixel(1, 1, 2.0, [0.0, 0.0, 1.0]),
            "closer fragment must win"
        );
        assert_eq!(fb.pixel(1, 1), [0.0, 0.0, 1.0]);
        assert_eq!(depth_at(&fb, 1, 1), 2.0);
        assert_eq!(fb.covered_pixels(), 1);
        assert!(!fb.set_pixel(10, 10, 0.0, [1.0; 3]));
    }

    #[test]
    fn clear_resets_color_and_depth() {
        let mut fb = Framebuffer::new(2, 2);
        fb.set_pixel(0, 0, 1.0, [1.0; 3]);
        fb.clear([0.1, 0.2, 0.3]);
        assert_eq!(fb.pixel(0, 0), [0.1, 0.2, 0.3]);
        assert_eq!(fb.covered_pixels(), 0);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    fn ascii_uses_denser_glyphs_for_brighter_pixels() {
        let mut fb = Framebuffer::new(2, 1);
        fb.set_pixel_flat(0, 0, [0.0; 3]);
        fb.set_pixel_flat(1, 0, [1.0, 1.0, 1.0]);
        let ascii = fb.to_ascii();
        assert_eq!(ascii, " @\n");
        assert_eq!(fb.width(), 2);
        assert_eq!(fb.height(), 1);
    }

    #[test]
    fn downsample_averages() {
        let mut fb = Framebuffer::new(4, 4);
        fb.clear([0.0; 3]);
        // One white 2x2 block in the top-left quadrant.
        for y in 0..2 {
            for x in 0..2 {
                fb.set_pixel_flat(x, y, [1.0; 3]);
            }
        }
        let small = fb.downsample(2);
        assert_eq!(small.width(), 2);
        assert_eq!(small.pixel(0, 0), [1.0, 1.0, 1.0]);
        assert_eq!(small.pixel(1, 1), [0.0, 0.0, 0.0]);
    }
}
