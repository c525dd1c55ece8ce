//! Moving textured objects and their dynamics.

use crate::classes::SegClass;
use rand::rngs::StdRng;
use rand::RngExt;

/// Geometric footprint of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectShape {
    /// Axis-aligned ellipse.
    Ellipse,
    /// Axis-aligned rectangle.
    Rectangle,
}

/// One moving foreground object.
///
/// Positions and sizes are in pixels (f32 so sub-pixel motion accumulates);
/// velocities are pixels per frame. Objects bounce off the frame borders so
/// they stay (mostly) visible, matching the LVS property that object classes
/// never leave the scene for long.
#[derive(Debug, Clone, PartialEq)]
pub struct MovingObject {
    /// Segmentation class of the object.
    pub class: SegClass,
    /// Footprint geometry.
    pub shape: ObjectShape,
    /// Centre x position (pixels).
    pub x: f32,
    /// Centre y position (pixels).
    pub y: f32,
    /// Half-width (pixels).
    pub half_w: f32,
    /// Half-height (pixels).
    pub half_h: f32,
    /// Velocity in x (pixels/frame).
    pub vx: f32,
    /// Velocity in y (pixels/frame).
    pub vy: f32,
    /// Texture phase (advances over time so the object interior changes slowly).
    pub phase: f32,
}

impl MovingObject {
    /// Spawn a random object of `class` inside a `w × h` frame.
    pub fn spawn(class: SegClass, w: usize, h: usize, speed: f32, rng: &mut StdRng) -> Self {
        let shape = if rng.random::<f32>() < 0.5 {
            ObjectShape::Ellipse
        } else {
            ObjectShape::Rectangle
        };
        // Object size scales with the frame: between 8% and 22% of the width.
        let half_w = (0.04 + 0.07 * rng.random::<f32>()) * w as f32;
        let aspect = 0.6 + 0.8 * rng.random::<f32>();
        let half_h = (half_w * aspect).min(h as f32 * 0.4);
        let angle = rng.random::<f32>() * std::f32::consts::TAU;
        MovingObject {
            class,
            shape,
            x: rng.random::<f32>() * w as f32,
            y: rng.random::<f32>() * h as f32,
            half_w,
            half_h,
            vx: speed * angle.cos(),
            vy: speed * angle.sin(),
            phase: rng.random::<f32>() * std::f32::consts::TAU,
        }
    }

    /// Advance the object one frame, bouncing off the borders of a `w × h`
    /// frame and slowly evolving its texture phase.
    pub fn step(&mut self, w: usize, h: usize) {
        self.x += self.vx;
        self.y += self.vy;
        self.phase += 0.05;
        let (w, h) = (w as f32, h as f32);
        if self.x < 0.0 {
            self.x = -self.x;
            self.vx = self.vx.abs();
        }
        if self.x > w {
            self.x = 2.0 * w - self.x;
            self.vx = -self.vx.abs();
        }
        if self.y < 0.0 {
            self.y = -self.y;
            self.vy = self.vy.abs();
        }
        if self.y > h {
            self.y = 2.0 * h - self.y;
            self.vy = -self.vy.abs();
        }
    }

    /// Whether the object covers pixel `(px, py)` given a global camera
    /// offset `(cam_x, cam_y)`.
    pub fn covers(&self, px: f32, py: f32, cam_x: f32, cam_y: f32) -> bool {
        let dx = px - (self.x - cam_x);
        let dy = py - (self.y - cam_y);
        match self.shape {
            ObjectShape::Rectangle => dx.abs() <= self.half_w && dy.abs() <= self.half_h,
            ObjectShape::Ellipse => {
                let nx = dx / self.half_w.max(1e-3);
                let ny = dy / self.half_h.max(1e-3);
                nx * nx + ny * ny <= 1.0
            }
        }
    }

    /// Object texture intensity at pixel `(px, py)`: a class-specific striped
    /// pattern plus the object's own slowly-drifting phase.
    pub fn texture(&self, px: f32, py: f32) -> f32 {
        let freq = self.class.texture_frequency();
        (0.5 + 0.5 * ((px * 0.35 + py * 0.22) * freq + self.phase).sin()).clamp(0.0, 1.0)
    }

    /// Bounding box `(x0, y0, x1, y1)` clipped to a `w × h` frame under a
    /// camera offset; `None` when the object is entirely off-screen.
    pub fn bbox(
        &self,
        w: usize,
        h: usize,
        cam_x: f32,
        cam_y: f32,
    ) -> Option<(usize, usize, usize, usize)> {
        let x0 = (self.x - cam_x - self.half_w).floor().max(0.0);
        let y0 = (self.y - cam_y - self.half_h).floor().max(0.0);
        let x1 = (self.x - cam_x + self.half_w).ceil().min(w as f32 - 1.0);
        let y1 = (self.y - cam_y + self.half_h).ceil().min(h as f32 - 1.0);
        if x0 > x1 || y0 > y1 {
            None
        } else {
            Some((x0 as usize, y0 as usize, x1 as usize, y1 as usize))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn spawn_within_frame() {
        let mut r = rng();
        for _ in 0..20 {
            let o = MovingObject::spawn(SegClass::Dog, 64, 48, 1.0, &mut r);
            assert!(o.x >= 0.0 && o.x <= 64.0);
            assert!(o.y >= 0.0 && o.y <= 48.0);
            assert!(o.half_w > 0.0 && o.half_h > 0.0);
            let speed = (o.vx * o.vx + o.vy * o.vy).sqrt();
            assert!((speed - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn step_keeps_object_in_bounds() {
        let mut r = rng();
        let mut o = MovingObject::spawn(SegClass::Person, 64, 48, 3.0, &mut r);
        for _ in 0..1000 {
            o.step(64, 48);
            assert!(o.x >= -3.0 && o.x <= 67.0, "x out of bounds: {}", o.x);
            assert!(o.y >= -3.0 && o.y <= 51.0, "y out of bounds: {}", o.y);
        }
    }

    #[test]
    fn coverage_rectangle_and_ellipse() {
        let rect = MovingObject {
            class: SegClass::Automobile,
            shape: ObjectShape::Rectangle,
            x: 10.0,
            y: 10.0,
            half_w: 4.0,
            half_h: 2.0,
            vx: 0.0,
            vy: 0.0,
            phase: 0.0,
        };
        assert!(rect.covers(10.0, 10.0, 0.0, 0.0));
        assert!(rect.covers(13.9, 11.9, 0.0, 0.0));
        assert!(!rect.covers(15.0, 10.0, 0.0, 0.0));
        let ell = MovingObject {
            shape: ObjectShape::Ellipse,
            ..rect.clone()
        };
        assert!(ell.covers(10.0, 10.0, 0.0, 0.0));
        // Rectangle corner is outside the inscribed ellipse.
        assert!(!ell.covers(13.9, 11.9, 0.0, 0.0));
    }

    #[test]
    fn camera_offset_shifts_coverage() {
        let o = MovingObject {
            class: SegClass::Bird,
            shape: ObjectShape::Rectangle,
            x: 10.0,
            y: 10.0,
            half_w: 2.0,
            half_h: 2.0,
            vx: 0.0,
            vy: 0.0,
            phase: 0.0,
        };
        assert!(o.covers(10.0, 10.0, 0.0, 0.0));
        assert!(!o.covers(10.0, 10.0, 5.0, 0.0));
        assert!(o.covers(5.0, 10.0, 5.0, 0.0));
    }

    #[test]
    fn bbox_clips_to_frame() {
        let o = MovingObject {
            class: SegClass::Bird,
            shape: ObjectShape::Rectangle,
            x: 2.0,
            y: 2.0,
            half_w: 5.0,
            half_h: 5.0,
            vx: 0.0,
            vy: 0.0,
            phase: 0.0,
        };
        let (x0, y0, x1, y1) = o.bbox(64, 48, 0.0, 0.0).unwrap();
        assert_eq!((x0, y0), (0, 0));
        assert!(x1 <= 7 && y1 <= 7);
        // Fully off-screen object.
        assert!(o.bbox(64, 48, 100.0, 0.0).is_none());
    }

    #[test]
    fn texture_in_unit_range() {
        let mut r = rng();
        let o = MovingObject::spawn(SegClass::Giraffe, 64, 48, 1.0, &mut r);
        for p in 0..100 {
            let t = o.texture(p as f32, (p * 3 % 48) as f32);
            assert!((0.0..=1.0).contains(&t));
        }
    }
}
